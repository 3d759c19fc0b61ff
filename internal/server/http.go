package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Trace propagation headers.
const (
	// RequestIDHeader carries a request's trace identity across tiers:
	// the router stamps it on proxied requests so replica-side traces
	// (and failover retries) correlate under one id.
	RequestIDHeader = "X-Isel-Request-Id"
	// TraceHeader is the response summary of the batch's slowest job.
	TraceHeader = "X-Isel-Trace"
)

// MaxCompileBodyBytes bounds a POST /compile body, at the compile handler
// and at the router that buffers each body to replay it on failover. Both
// answer 413 past it.
const MaxCompileBodyBytes = 1 << 20

// The HTTP/JSON protocol of cmd/iselserver. One handler fronts one
// Server, which since the v2 API serves every machine of a
// repro.Registry (one warm engine each) from one process:
//
//	POST /compile?machine=x86   CompileRequest -> CompileResponse
//	POST /evict?machine=x86     drop the machine's engine (next job rebuilds)
//	POST /swap?machine=x86      hot-swap the machine's table set (zero downtime)
//	GET  /stats                 -> StatsResponse (every machine's warmth + version)
//	GET  /healthz               -> 200 "ok" (liveness)
//	GET  /readyz                -> 200 "ready" | 503 (routability)
//
// The machine query parameter selects the machine description; absent, it
// defaults to the registry's first-registered machine. A compile request
// carries either textual IR trees (the ir.ParseTrees syntax, e.g.
// "ADD(REG[1], CNST[2])") or a MinC source file; MinC units lower to one
// forest per function. Each forest becomes one server job, so a single
// request from one client is the unit-sized batch the paper's
// amortization argument is about.
//
// Requests are cancellable end to end: each job runs under the request's
// context (plus Config.RequestTimeout), so a client that disconnects — or
// times out — stops paying for queued and in-flight work. Status codes:
// 400 for malformed requests, 413 for bodies over MaxCompileBodyBytes,
// 404 for unregistered machines, 500 for a registered machine whose
// engine failed to construct, 422 for forests with no derivation, 429
// (+ Retry-After) when Config.ShedOnFull sheds a saturated queue, 503 for
// shutdown or an exhausted state budget (Options.MaxStates), 504 for jobs
// that exceeded the request timeout.
// POST /swap answers 409 while another swap of the same machine is
// mid-cutover (and for AddSelector machines, which have no rebuild
// recipe), 500 when the new version failed to construct — the old version
// keeps serving in every failure case.

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	// Client identifies the submitting client for per-client work
	// accounting; the remote address is used when empty.
	Client string `json:"client,omitempty"`
	// Trees is textual IR (one tree per line or semicolon-separated).
	Trees string `json:"trees,omitempty"`
	// MinC is a MinC source unit. Exactly one of Trees/MinC must be set.
	MinC string `json:"minc,omitempty"`
}

// CompileOutput is one compiled forest (per tree batch or per function).
type CompileOutput struct {
	Name         string `json:"name,omitempty"` // function name for MinC units
	Asm          string `json:"asm"`
	Instructions int    `json:"instructions"`
	Cost         int64  `json:"cost"`
	// Trace is the job's stage timeline, present only under ?trace=1.
	Trace *telemetry.Entry `json:"trace,omitempty"`
}

// CompileResponse is the body of a successful POST /compile.
type CompileResponse struct {
	// Machine echoes the machine description that served the request.
	Machine string          `json:"machine"`
	Outputs []CompileOutput `json:"outputs"`
	// States/Transitions snapshot the machine's automaton after this
	// request: successive responses show the warmth curve flattening.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// RequestID is the request's trace identity — the X-Isel-Request-Id
	// it arrived with, or one drawn here. All jobs of the batch share
	// it, and a router's failover hops carry it across replicas.
	RequestID uint64 `json:"requestId,omitempty"`
}

// MachineStats is one registered machine's entry in GET /stats.
type MachineStats struct {
	Machine     string `json:"machine"`
	Kind        string `json:"kind"`
	Constructed bool   `json:"constructed"`
	Error       string `json:"error,omitempty"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	MemoryBytes int    `json:"memoryBytes"`
	// Version is the serving table-set generation (bumped by every swap
	// and eviction); Swapping marks a cutover in progress and Draining
	// counts replaced versions still finishing their jobs.
	Version  int  `json:"version"`
	Swapping bool `json:"swapping,omitempty"`
	Draining int  `json:"draining,omitempty"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Machines   []MachineStats `json:"machines"`
	Workers    int            `json:"workers"`
	QueueDepth int            `json:"queueDepth"`
	Jobs       int64          `json:"jobs"`
	Nodes      int64          `json:"nodes"`
	Cancelled  int64          `json:"cancelled"`
	Queued     int            `json:"queued"`
	// ResidentBytes totals the registry's resident table memory (serving
	// + draining versions); MaxTableBytes echoes the armed budget.
	ResidentBytes int                         `json:"residentBytes"`
	MaxTableBytes int                         `json:"maxTableBytes,omitempty"`
	Global        metrics.Counters            `json:"global"`
	Clients       map[string]metrics.Counters `json:"clients"`
	// Latency carries the raw mergeable machine × kind stage histograms
	// (the fleet-aggregation plane: a router folds replicas' series
	// together with telemetry.MergeSeries, exactly as it Adds counters);
	// LatencySummaries renders the same series as percentiles, keyed
	// "machine/kind" then stage name (plus "total").
	Latency          []telemetry.SeriesSnapshot                     `json:"latency,omitempty"`
	LatencySummaries map[string]map[string]telemetry.LatencySummary `json:"latencySummaries,omitempty"`
}

// SummarizeLatency renders a series list as the LatencySummaries map.
func SummarizeLatency(series []telemetry.SeriesSnapshot) map[string]map[string]telemetry.LatencySummary {
	if len(series) == 0 {
		return nil
	}
	out := make(map[string]map[string]telemetry.LatencySummary, len(series))
	for _, ss := range series {
		out[ss.Machine+"/"+ss.Kind] = ss.StageSummaries()
	}
	return out
}

// SwapResponse is the body of a successful POST /swap.
type SwapResponse struct {
	Machine string `json:"machine"`
	// Version is the generation now serving (the swapped-in table set).
	Version int    `json:"version"`
	Kind    string `json:"kind"`
}

// Handler is the HTTP front end over one Server.
type Handler struct {
	srv *Server
	mux *http.ServeMux
}

// NewHandler builds the HTTP front end over srv; machines resolve through
// srv's registry.
func NewHandler(srv *Server) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /compile", h.compile)
	h.mux.HandleFunc("POST /evict", h.evict)
	h.mux.HandleFunc("POST /swap", h.swap)
	h.mux.HandleFunc("GET /stats", h.stats)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	h.mux.HandleFunc("GET /readyz", h.readyz)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /version", h.version)
	h.mux.HandleFunc("GET /debug/slowlog", h.slowlog)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ReadCompileBody reads r's whole body, at most MaxCompileBodyBytes of
// it. On failure it has already answered, 413 past the bound and 400
// otherwise, and returns false.
func ReadCompileBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxCompileBodyBytes))
	if err == nil {
		return body, true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "reading request body: %v", err)
	return nil, false
}

// compileErrorCode maps a failed job's error to its HTTP status.
func compileErrorCode(err error) int {
	switch {
	case errors.Is(err, repro.ErrStateBudget):
		return http.StatusServiceUnavailable // bounded tables: shed, don't grow
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

func (h *Handler) compile(w http.ResponseWriter, r *http.Request) {
	// Fault-injection seam: inert (one atomic load) in production. Arming
	// ReplicaDeath makes this replica refuse compile intake the way a
	// dying process does (503, the router's failover trigger), which is
	// how the cluster tests kill a replica mid-traffic deterministically.
	if err := faultinject.Fire(faultinject.ReplicaDeath); err != nil {
		httpError(w, http.StatusServiceUnavailable, "replica failing: %v", err)
		return
	}
	body, ok := ReadCompileBody(w, r)
	if !ok {
		return
	}
	var req CompileRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	client := req.Client
	if client == "" {
		// Fall back to the peer host, so unnamed clients still aggregate.
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		} else {
			client = r.RemoteAddr
		}
	}
	machine := r.URL.Query().Get("machine")
	m, sel, err := h.srv.Registry().Get(machine)
	if err != nil {
		// Unregistered names are the client's mistake (404); a registered
		// machine that failed to construct is a server fault (500).
		code := http.StatusInternalServerError
		if errors.Is(err, repro.ErrUnknownMachine) {
			code = http.StatusNotFound
		}
		httpError(w, code, "%v", err)
		return
	}

	var names []string
	var forests []*repro.Forest
	switch {
	case req.Trees != "" && req.MinC != "":
		httpError(w, http.StatusBadRequest, "set exactly one of trees/minc, not both")
		return
	case req.Trees != "":
		f, err := m.ParseTree(req.Trees)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing trees: %v", err)
			return
		}
		names = []string{""}
		forests = []*repro.Forest{f}
	case req.MinC != "":
		u, err := m.CompileMinC(req.MinC)
		if err != nil {
			httpError(w, http.StatusBadRequest, "compiling minc: %v", err)
			return
		}
		for _, fn := range u.Funcs {
			names = append(names, fn.Name)
			forests = append(forests, fn.Forest)
		}
	default:
		httpError(w, http.StatusBadRequest, "set one of trees/minc")
		return
	}

	// Trace identity: adopt the router-propagated request id when the
	// request carries one, so replica-side traces correlate with the
	// router's hop spans; draw a fresh one otherwise. HTTP requests
	// always ask for detail — the response allocates regardless, and the
	// detail copy is what feeds the X-Isel-Trace header (?trace=1 adds
	// the full per-output timelines to the body).
	reqID, _ := strconv.ParseUint(r.Header.Get(RequestIDHeader), 10, 64)
	if reqID == 0 {
		reqID = h.srv.NextRequestID()
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	// The request context covers every job of the batch: a disconnecting
	// client cancels its queued and in-flight work (plus whatever
	// RequestTimeout the server config arms per job).
	futs, err := h.srv.SubmitBatchTraced(r.Context(), client, m.Name, forests,
		TraceOptions{RequestID: reqID, Detail: true})
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			// Shed load is retryable load: tell the client when to come back.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := CompileResponse{Machine: m.Name, Outputs: make([]CompileOutput, len(futs)), RequestID: reqID}
	var slowest *telemetry.Entry
	for i, fut := range futs {
		out, err := fut.Wait()
		if err != nil {
			httpError(w, compileErrorCode(err), "%s: %v", names[i], err)
			return
		}
		resp.Outputs[i] = CompileOutput{
			Name: names[i], Asm: out.Asm,
			Instructions: out.Instructions, Cost: int64(out.Cost),
		}
		if e := fut.TraceEntry(); e != nil {
			if wantTrace {
				resp.Outputs[i].Trace = e
			}
			if slowest == nil || e.TotalNs > slowest.TotalNs {
				slowest = e
			}
		}
	}
	snap := sel.Snapshot()
	resp.States, resp.Transitions = snap.States, snap.Transitions
	if slowest != nil {
		// The summary of the batch's slowest job: enough to spot where a
		// slow request spent its time without re-asking with ?trace=1.
		w.Header().Set(TraceHeader, slowest.Summary())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// evict resets one machine's engine (POST /evict?machine=x): 404 for
// unregistered names, 409 for machines whose selector the registry cannot
// reconstruct (AddSelector entries).
func (h *Handler) evict(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if err := h.srv.Evict(machine); err != nil {
		code := http.StatusConflict
		if errors.Is(err, repro.ErrUnknownMachine) {
			code = http.StatusNotFound
		}
		httpError(w, code, "%v", err)
		return
	}
	if machine == "" {
		machine = h.srv.Registry().DefaultName()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"machine": machine, "evicted": true})
}

// swap hot-swaps one machine's table set (POST /swap?machine=x): the new
// version is built warm beside the old and traffic cuts over atomically;
// in-flight jobs drain on the old version. 404 for unregistered names,
// 409 for a swap already in progress (or an AddSelector machine with no
// rebuild recipe), 500 when the new version failed to construct — in
// which case the old version keeps serving untouched.
func (h *Handler) swap(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if err := h.srv.Swap(machine); err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, repro.ErrUnknownMachine):
			code = http.StatusNotFound
		case errors.Is(err, repro.ErrSwapInProgress), errors.Is(err, repro.ErrNotSwappable):
			code = http.StatusConflict
		}
		httpError(w, code, "%v", err)
		return
	}
	if machine == "" {
		machine = h.srv.Registry().DefaultName()
	}
	resp := SwapResponse{Machine: machine}
	for _, st := range h.srv.Registry().Status() {
		if st.Machine == machine {
			resp.Version, resp.Kind = st.Version, string(st.Kind)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// readyz is the routability probe: 200 only when the server is accepting
// jobs, no machine is mid-swap, and every ExpectWarm machine serves warm.
// Liveness stays on /healthz — an alive replica mid-cutover answers 503
// here so load balancers route around the transient.
func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	if err := h.srv.Ready(); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	st := h.srv.Stats()
	resp := StatsResponse{
		Workers:          st.Workers,
		QueueDepth:       st.QueueDepth,
		Jobs:             st.Jobs,
		Nodes:            st.Nodes,
		Cancelled:        st.Cancelled,
		Queued:           st.Queued,
		ResidentBytes:    st.ResidentBytes,
		MaxTableBytes:    st.MaxTableBytes,
		Global:           st.Global,
		Clients:          map[string]metrics.Counters{},
		Latency:          st.Latency,
		LatencySummaries: SummarizeLatency(st.Latency),
	}
	for _, ms := range st.Machines {
		resp.Machines = append(resp.Machines, MachineStats{
			Machine:     ms.Machine,
			Kind:        string(ms.Kind),
			Constructed: ms.Constructed,
			Error:       ms.Err,
			States:      ms.Warmth.States,
			Transitions: ms.Warmth.Transitions,
			MemoryBytes: ms.Warmth.MemoryBytes,
			Version:     ms.Version,
			Swapping:    ms.Swapping,
			Draining:    ms.Draining,
		})
	}
	for _, c := range h.srv.Clients() {
		resp.Clients[c] = h.srv.ClientCounters(c)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
