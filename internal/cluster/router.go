package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// RouterConfig assembles the fleet front end.
type RouterConfig struct {
	// Peers is the replica list — the same list, in any order, that every
	// replica was given (the ring is the shared routing table).
	Peers []string
	// Machines is the fleet machine set ([0] is the default machine for
	// requests without ?machine=).
	Machines []string
	// Replication is the owners-per-machine factor, matching the replicas'.
	Replication int
	// VNodes configures the ring (DefaultVNodes if <= 0).
	VNodes int
	// PerTryTimeout bounds one proxy attempt to one replica (default 30s);
	// the client's own deadline still bounds the whole request.
	PerTryTimeout time.Duration
	// Client is the outbound peer client (nil = a default).
	Client *http.Client
	// Logf receives operational messages (nil = silent).
	Logf func(format string, args ...any)
	// SlowlogSize bounds the router's own slowlog of slowest proxied
	// requests — the one place failover hop chains are retained (32 if
	// <= 0).
	SlowlogSize int
}

// Router is the fleet front end: it owns no tables and compiles nothing.
// POST /compile is proxied to the target machine's ring owners with
// retry-on-next-replica failover (the request body, at most
// server.MaxCompileBodyBytes, is buffered so a retry replays it
// bit-identically); GET /stats scrapes and aggregates every
// replica; GET /readyz vouches for the fleet's shards, not for a process.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	members *Membership
	mux     *http.ServeMux
	logf    func(string, ...any)

	proxied   atomic.Int64 // client requests accepted for proxying
	retries   atomic.Int64 // extra attempts beyond each request's first
	failovers atomic.Int64 // requests answered by a non-first candidate

	// The router's telemetry: request ids minted here follow each proxied
	// request across replicas (X-Isel-Request-Id), and the slowlog keeps
	// hop chains — which owners a failover tried, in order — that no
	// single replica can see.
	reqIDs  atomic.Uint64
	slow    *telemetry.Slowlog
	started time.Time
}

// NewRouter builds the router over the shared peer list.
func NewRouter(cfg RouterConfig) (*Router, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one machine")
	}
	if cfg.PerTryTimeout <= 0 {
		cfg.PerTryTimeout = 30 * time.Second
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		members: NewMembership(cfg.Peers, cfg.Client),
		logf:    logf,
		slow:    telemetry.NewSlowlog(cfg.SlowlogSize),
		started: time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", rt.compile)
	mux.HandleFunc("GET /stats", rt.stats)
	mux.HandleFunc("GET /readyz", rt.readyz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /cluster", rt.clusterInfo)
	mux.HandleFunc("GET /metrics", rt.metrics)
	mux.HandleFunc("GET /version", rt.version)
	mux.HandleFunc("GET /debug/slowlog", rt.slowlog)
	rt.mux = mux
	return rt, nil
}

// Handler is the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// StartProbing launches active peer health probing.
func (rt *Router) StartProbing(every time.Duration) { rt.members.StartProbing(every) }

// Stop halts probing.
func (rt *Router) Stop() { rt.members.Stop() }

// Members exposes the router's liveness view (tests arm it).
func (rt *Router) Members() *Membership { return rt.members }

// candidates orders the replicas to try for machine: its ring owners
// first (believed-alive before marked-down — a marked-down owner is still
// tried last-resort rather than never, in case the belief is stale), then
// every remaining live member as spillover. Spillover replicas serve the
// machine cold via their fallback engine, which beats failing the client
// when every owner is down.
func (rt *Router) candidates(machine string) []string {
	owners := rt.ring.Owners(machine, rt.cfg.Replication)
	isOwner := map[string]bool{}
	var alive, down []string
	for _, o := range owners {
		isOwner[o] = true
		if rt.members.Alive(o) {
			alive = append(alive, o)
		} else {
			down = append(down, o)
		}
	}
	var spill []string
	for _, p := range rt.ring.Members() {
		if !isOwner[p] && rt.members.Alive(p) {
			spill = append(spill, p)
		}
	}
	return append(append(alive, spill...), down...)
}

// retryable reports whether a replica's HTTP answer means "try the next
// replica" rather than "relay to the client": server faults and
// backpressure (5xx, 429) fail over; client errors (bad IR, unknown
// machine) are the client's to see — no other replica would answer
// differently.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

func (rt *Router) compile(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if machine == "" {
		machine = rt.cfg.Machines[0]
	}
	body, ok := server.ReadCompileBody(w, r)
	if !ok {
		return
	}
	// One request id for the request's whole fleet journey: adopted from
	// the client when present, minted here otherwise, and stamped on
	// every replica attempt — so a failover's replica-side traces and
	// the router's hop chain correlate under one id.
	reqID, _ := strconv.ParseUint(r.Header.Get(server.RequestIDHeader), 10, 64)
	if reqID == 0 {
		reqID = rt.reqIDs.Add(1)
	}
	wantTrace := r.URL.Query().Get("trace") == "1"
	start := time.Now()
	rt.proxied.Add(1)
	cands := rt.candidates(machine)
	var hops []telemetry.Hop
	var lastErr error
	for i, peer := range cands {
		if i > 0 {
			rt.retries.Add(1)
		}
		attempt := time.Now()
		resp, err := rt.tryCompile(r.Context(), peer, machine, body, reqID, wantTrace)
		if err != nil {
			hops = append(hops, telemetry.Hop{
				Peer: peer, Err: err.Error(),
				Ns: time.Since(attempt).Nanoseconds(), Failover: i > 0,
			})
			rt.members.ReportDown(peer, err)
			rt.logf("cluster: router: %s via %s: %v (trying next)", machine, peer, err)
			lastErr = err
			continue
		}
		rt.members.ReportUp(peer)
		if retryable(resp.StatusCode) && i < len(cands)-1 {
			// Drain and drop: the next candidate may well succeed. The
			// last candidate's answer is relayed even when retryable —
			// a fleet-wide 429 is real backpressure the client should see.
			b, _ := readAllLimited(resp.Body)
			resp.Body.Close()
			hops = append(hops, telemetry.Hop{
				Peer: peer, Status: resp.StatusCode,
				Ns: time.Since(attempt).Nanoseconds(), Failover: i > 0,
			})
			rt.logf("cluster: router: %s via %s answered %d (trying next)", machine, peer, resp.StatusCode)
			lastErr = fmt.Errorf("%s answered %d: %s", peer, resp.StatusCode, bytes.TrimSpace(b))
			continue
		}
		if i > 0 {
			rt.failovers.Add(1)
		}
		hops = append(hops, telemetry.Hop{
			Peer: peer, Status: resp.StatusCode,
			Ns: time.Since(attempt).Nanoseconds(), Failover: i > 0,
		})
		if len(hops) > 1 || wantTrace {
			w.Header().Set(TraceHopsHeader, renderHops(hops))
		}
		relay(w, resp)
		rt.recordProxied(reqID, machine, r, start, hops, "")
		return
	}
	httpError(w, http.StatusBadGateway, "no replica could serve machine %s: %v", machine, lastErr)
	errStr := ""
	if lastErr != nil {
		errStr = lastErr.Error()
	}
	rt.recordProxied(reqID, machine, r, start, hops, errStr)
}

// recordProxied files one proxied request into the router slowlog: a
// trace whose spans live in Hops (which owners were tried, in order)
// rather than pipeline stages.
func (rt *Router) recordProxied(reqID uint64, machine string, r *http.Request, start time.Time, hops []telemetry.Hop, errStr string) {
	client := r.RemoteAddr
	if host, _, err := net.SplitHostPort(client); err == nil {
		client = host
	}
	rt.slow.Record(telemetry.Entry{
		ID: reqID, Machine: machine, Client: client, Start: start,
		TotalNs: time.Since(start).Nanoseconds(), Err: errStr, Hops: hops,
	})
}

// TraceHopsHeader is the router's response header naming every replica
// attempt of a proxied request — present whenever a failover happened,
// or always under ?trace=1.
const TraceHopsHeader = "X-Isel-Trace-Hops"

// renderHops renders a hop chain compactly:
//
//	http://a:1 status=503 12ms failover=false; http://b:1 status=200 3ms failover=true
func renderHops(hops []telemetry.Hop) string {
	var b bytes.Buffer
	for i, h := range hops {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s ", h.Peer)
		if h.Err != "" {
			fmt.Fprintf(&b, "err=%q ", h.Err)
		} else {
			fmt.Fprintf(&b, "status=%d ", h.Status)
		}
		fmt.Fprintf(&b, "%s failover=%v", time.Duration(h.Ns), h.Failover)
	}
	return b.String()
}

// tryCompile replays the buffered request against one replica, carrying
// the fleet request id (and the client's trace ask) across the hop.
func (rt *Router) tryCompile(ctx context.Context, peer, machine string, body []byte, reqID uint64, wantTrace bool) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.PerTryTimeout)
	url := peer + "/compile?machine=" + machine
	if wantTrace {
		url += "&trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, strconv.FormatUint(reqID, 10))
	resp, err := rt.members.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel must outlive the body read; tie it to the body's Close.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelOnClose struct {
	ReadCloser interface {
		Read([]byte) (int, error)
		Close() error
	}
	cancel context.CancelFunc
}

func (c *cancelOnClose) Read(p []byte) (int, error) { return c.ReadCloser.Read(p) }
func (c *cancelOnClose) Close() error {
	defer c.cancel()
	return c.ReadCloser.Close()
}

// relay copies one replica answer to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	body, err := readAllLimited(resp.Body)
	if err == nil {
		w.Write(body)
	}
}

// ReplicaStats is one replica's scrape in the router's fleet view.
type ReplicaStats struct {
	Peer  string `json:"peer"`
	Alive bool   `json:"alive"`
	Error string `json:"error,omitempty"`
	// Stats is the replica's own GET /stats body (absent when the scrape
	// failed).
	Stats *server.StatsResponse `json:"stats,omitempty"`
}

// ShardStatus is one machine's serving state across its owners.
type ShardStatus struct {
	Machine string   `json:"machine"`
	Owners  []string `json:"owners"`
	// WarmOwners are the owners currently serving the machine warm-ready
	// (alive, replica ready, machine constructed without error).
	WarmOwners []string `json:"warmOwners"`
	Ready      bool     `json:"ready"`
}

// RoutingStats counts the router's own proxy work.
type RoutingStats struct {
	Proxied   int64 `json:"proxied"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
}

// FleetStats is the body of the router's GET /stats: the per-replica
// scrapes plus fleet-level aggregation — summed job counts, merged global
// engine counters, and per-client counters merged across every replica a
// client's requests landed on. After traffic quiesces, each client's
// merged counters and the merged global counters obey the same exact
// accounting invariant one replica's do: clients sum to global.
type FleetStats struct {
	Machines []string       `json:"machines"`
	Replicas []ReplicaStats `json:"replicas"`
	Shards   []ShardStatus  `json:"shards"`
	Routing  RoutingStats   `json:"routing"`

	Jobs      int64 `json:"jobs"`
	Nodes     int64 `json:"nodes"`
	Cancelled int64 `json:"cancelled"`
	// ResidentBytes sums every replica's resident table bytes — the
	// fleet's total warm-state footprint.
	ResidentBytes int                         `json:"residentBytes"`
	Global        metrics.Counters            `json:"global"`
	Clients       map[string]metrics.Counters `json:"clients"`
	// Latency is every replica's stage-latency series folded together
	// with telemetry.MergeSeries — the histogram analogue of the counter
	// merge above: snapshot-merge is associative, so the fleet p99s here
	// are what one process observing all traffic would have recorded.
	Latency          []telemetry.SeriesSnapshot                     `json:"latency,omitempty"`
	LatencySummaries map[string]map[string]telemetry.LatencySummary `json:"latencySummaries,omitempty"`
}

// scrape fetches one GET path from every peer concurrently, returning the
// bodies (nil where the peer failed) alongside per-peer errors.
func (rt *Router) scrape(path string) (bodies [][]byte, errs []error) {
	peers := rt.members.Peers()
	bodies = make([][]byte, len(peers))
	errs = make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.PerTryTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := rt.members.Do(req)
			if err != nil {
				rt.members.ReportDown(peer, err)
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			rt.members.ReportUp(peer)
			body, err := readAllLimited(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("%s%s answered %d: %s", peer, path, resp.StatusCode, bytes.TrimSpace(body))
				return
			}
			bodies[i] = body
		}(i, p)
	}
	wg.Wait()
	return bodies, errs
}

// fleet scrapes every replica's /stats and /readyz and assembles the
// aggregated view (shared by the stats and readyz handlers).
func (rt *Router) fleet() FleetStats {
	peers := rt.members.Peers()
	statBodies, statErrs := rt.scrape("/stats")
	readyBodies, _ := rt.scrape("/readyz")

	fs := FleetStats{
		Machines: append([]string(nil), rt.cfg.Machines...),
		Clients:  map[string]metrics.Counters{},
		Routing: RoutingStats{
			Proxied:   rt.proxied.Load(),
			Retries:   rt.retries.Load(),
			Failovers: rt.failovers.Load(),
		},
	}
	// Per-replica decode + fleet aggregation. A replica that cannot be
	// scraped contributes nothing to the totals (its numbers are
	// unreachable, not zero) and is reported with its error.
	ready := map[string]bool{}
	decoded := map[string]*server.StatsResponse{}
	for i, p := range peers {
		rs := ReplicaStats{Peer: p, Alive: rt.members.Alive(p)}
		if statErrs[i] != nil {
			rs.Error = statErrs[i].Error()
		} else {
			var sr server.StatsResponse
			if err := json.Unmarshal(statBodies[i], &sr); err != nil {
				rs.Error = fmt.Sprintf("decoding stats: %v", err)
			} else {
				rs.Stats = &sr
				decoded[p] = &sr
				fs.Jobs += sr.Jobs
				fs.Nodes += sr.Nodes
				fs.Cancelled += sr.Cancelled
				fs.ResidentBytes += sr.ResidentBytes
				g := sr.Global
				fs.Global.Add(&g)
				for client, c := range sr.Clients {
					merged := fs.Clients[client]
					merged.Add(&c)
					fs.Clients[client] = merged
				}
				fs.Latency = telemetry.MergeSeries(fs.Latency, sr.Latency)
			}
		}
		ready[p] = readyBodies[i] != nil
		fs.Replicas = append(fs.Replicas, rs)
	}
	for _, m := range fs.Machines {
		sh := ShardStatus{Machine: m, Owners: rt.ring.Owners(m, rt.cfg.Replication)}
		for _, o := range sh.Owners {
			sr := decoded[o]
			if sr == nil || !ready[o] {
				continue
			}
			for _, ms := range sr.Machines {
				if ms.Machine == m && ms.Constructed && ms.Error == "" {
					sh.WarmOwners = append(sh.WarmOwners, o)
					break
				}
			}
		}
		sh.Ready = len(sh.WarmOwners) > 0
		fs.Shards = append(fs.Shards, sh)
	}
	fs.LatencySummaries = server.SummarizeLatency(fs.Latency)
	return fs
}

// metrics is the router's GET /metrics: its own routing counters and
// per-peer liveness, plus the merged fleet view — same metric names the
// replicas expose, aggregated, so one scrape of the router sees the
// fleet.
func (rt *Router) metrics(w http.ResponseWriter, r *http.Request) {
	fs := rt.fleet()
	w.Header().Set("Content-Type", server.PromContentType)
	p := telemetry.NewPromWriter(w)
	p.Counter("isel_router_proxied_total", "Client requests accepted for proxying.", nil, float64(fs.Routing.Proxied))
	p.Counter("isel_router_retries_total", "Extra replica attempts beyond each request's first.", nil, float64(fs.Routing.Retries))
	p.Counter("isel_router_failovers_total", "Requests answered by a non-first candidate.", nil, float64(fs.Routing.Failovers))
	for _, rs := range fs.Replicas {
		var alive float64
		if rs.Alive {
			alive = 1
		}
		p.Gauge("isel_peer_alive", "1 while the peer is believed alive.", []telemetry.Label{{Name: "peer", Value: rs.Peer}}, alive)
	}
	for _, sh := range fs.Shards {
		var ready float64
		if sh.Ready {
			ready = 1
		}
		p.Gauge("isel_shard_warm_owners", "Owners currently serving the shard warm.",
			[]telemetry.Label{{Name: "machine", Value: sh.Machine}}, float64(len(sh.WarmOwners)))
		p.Gauge("isel_shard_ready", "1 while at least one owner serves the shard warm.",
			[]telemetry.Label{{Name: "machine", Value: sh.Machine}}, ready)
	}
	p.Counter("isel_jobs_total", "Fleet jobs run to completion.", nil, float64(fs.Jobs))
	p.Counter("isel_nodes_total", "Fleet IR nodes compiled.", nil, float64(fs.Nodes))
	p.Counter("isel_jobs_cancelled_total", "Fleet jobs cancelled.", nil, float64(fs.Cancelled))
	p.Gauge("isel_resident_table_bytes", "Fleet resident table memory.", nil, float64(fs.ResidentBytes))
	server.WritePromCounters(p, fs.Global)
	server.WritePromLatency(p, fs.Latency)
	p.Flush()
}

// version is the router's GET /version: build identity plus the fleet
// shape it fronts (the per-machine grammar fingerprints live on the
// replicas' own /version).
func (rt *Router) version(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"build":         telemetry.Build(),
		"started":       rt.started,
		"uptimeSeconds": time.Since(rt.started).Seconds(),
		"role":          "router",
		"peers":         rt.ring.Members(),
		"machines":      rt.cfg.Machines,
		"replication":   rt.cfg.Replication,
	})
}

// slowlog is the router's GET /debug/slowlog: the slowest proxied
// requests with their full hop chains — the only view that shows which
// owners a failover tried before one answered.
func (rt *Router) slowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, server.SlowlogResponse{Entries: rt.slow.Entries()})
}

// SlowlogEntries exposes the router slowlog to harnesses.
func (rt *Router) SlowlogEntries() []telemetry.Entry { return rt.slow.Entries() }

func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, rt.fleet())
}

// readyz answers 200 only when every shard is ready: each served machine
// has at least one ring owner alive, itself ready, and serving the
// machine warm. Mirrors the replica-level readyz-vs-healthz split at
// fleet scope — /healthz says "the router process is up", /readyz says
// "routed traffic will land on warm tables".
func (rt *Router) readyz(w http.ResponseWriter, r *http.Request) {
	fs := rt.fleet()
	for _, sh := range fs.Shards {
		if !sh.Ready {
			httpError(w, http.StatusServiceUnavailable,
				"shard %s has no warm-ready owner (owners %v)", sh.Machine, sh.Owners)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func (rt *Router) clusterInfo(w http.ResponseWriter, r *http.Request) {
	info := ClusterInfo{
		Peers:       rt.ring.Members(),
		Replication: rt.cfg.Replication,
		Owners:      map[string][]string{},
		Health:      rt.members.Health(),
	}
	for _, m := range rt.cfg.Machines {
		info.Owners[m] = rt.ring.Owners(m, rt.cfg.Replication)
	}
	writeJSON(w, info)
}
