package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/frontend"
	"repro/internal/server"
)

// errOracle reports an output that differs from the dp oracle's.
var errOracle = errors.New("output differs from the dp oracle")

// Headers that carry a traced request's identity from the benchmark's
// client to its traced handler.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Request"
	tracedPath = "/bench/compile"
)

// loopback is one HTTP listener on 127.0.0.1 serving h until close.
type loopback struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		lb.hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return lb, nil
}

// close stops the listener and every connection, and waits for Serve.
func (lb *loopback) close() {
	lb.hs.Close()
	<-lb.done
}

// newClient is an HTTP client for loopback traffic: at most conns
// connections per host and no proxy. dial, when not nil, replaces the
// dialer.
func newClient(conns int, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         dial,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one compile body and checks the response against hc's oracle
// outputs, reading it into buf. parent and req, when req > 0, link the
// server-side spans of a traced handler to the client's request span.
func post(c *http.Client, url string, hc *httpCase, parent, req int32, buf *bytes.Buffer) error {
	r, err := http.NewRequest(http.MethodPost, url+"?machine="+machineNames[hc.m], bytes.NewReader(hc.body))
	if err != nil {
		return err
	}
	r.Header.Set("Content-Type", "application/json")
	if req > 0 {
		r.Header.Set(spanHeader, strconv.Itoa(int(parent)))
		r.Header.Set(reqHeader, strconv.Itoa(int(req)))
	}
	resp, err := c.Do(r)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if !bytes.Contains(buf.Bytes(), hc.want) {
		return errOracle
	}
	return nil
}

// tracedHandler serves POST /compile the way server.Handler does, calling
// each layer's public function inside a span: JSON decode, MinC parse and
// lower (or tree parse), SubmitBatch, the Waits, and JSON encode.
type tracedHandler struct {
	srv *server.Server
	tr  *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	reqN, _ := strconv.Atoi(r.Header.Get(reqHeader))
	req := int32(reqN)
	hs := tr.begin(spHandler, int32(parent), req, -1)
	body, status, nodes, err := h.compile(r, hs, req)
	tr.end(hs, nodes)
	tr.publish()
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (h *tracedHandler) compile(r *http.Request, hs, req int32) ([]byte, int, int, error) {
	tr := h.tr
	s := tr.begin(spDecode, hs, req, -1)
	var cr server.CompileRequest
	err := json.NewDecoder(r.Body).Decode(&cr)
	tr.end(s, 1)
	if err != nil {
		return nil, http.StatusBadRequest, 0, err
	}
	machine := r.URL.Query().Get("machine")
	m, sel, err := h.srv.Registry().Get(machine)
	if err != nil {
		return nil, http.StatusNotFound, 0, err
	}
	mi := machineIndex(m.Name)
	var names []string
	var forests []*repro.Forest
	nodes := 0
	if cr.Trees != "" {
		s = tr.begin(spParseTrees, hs, req, mi)
		f, err := m.ParseTree(cr.Trees)
		if err != nil {
			tr.end(s, 0)
			return nil, http.StatusBadRequest, 0, err
		}
		nodes = f.NumNodes()
		tr.end(s, nodes)
		names, forests = []string{""}, []*repro.Forest{f}
	} else {
		ps := tr.begin(spParse, hs, req, mi)
		prog, err := frontend.Parse(cr.MinC)
		tr.end(ps, 0)
		if err != nil {
			return nil, http.StatusBadRequest, 0, err
		}
		s = tr.begin(spLower, hs, req, mi)
		u, err := frontend.Lower(prog, m.Grammar)
		if err != nil {
			tr.end(s, 0)
			return nil, http.StatusBadRequest, 0, err
		}
		nodes = u.TotalNodes()
		tr.end(s, nodes)
		if ps >= 0 {
			tr.spans[ps].nodes = int32(nodes)
		}
		for _, fn := range u.Funcs {
			names = append(names, fn.Name)
			forests = append(forests, fn.Forest)
		}
	}
	s = tr.begin(spSubmit, hs, req, mi)
	futs, err := h.srv.SubmitBatch(r.Context(), cr.Client, m.Name, forests)
	tr.end(s, len(forests))
	if err != nil {
		return nil, http.StatusServiceUnavailable, nodes, err
	}
	resp := server.CompileResponse{Machine: m.Name, Outputs: make([]server.CompileOutput, len(futs))}
	s = tr.begin(spWait, hs, req, mi)
	for i, fut := range futs {
		out, err := fut.Wait()
		if err != nil {
			tr.end(s, i)
			return nil, http.StatusUnprocessableEntity, nodes, err
		}
		resp.Outputs[i] = server.CompileOutput{Name: names[i], Asm: out.Asm, Instructions: out.Instructions, Cost: int64(out.Cost)}
	}
	tr.end(s, len(futs))
	snap := sel.Snapshot()
	resp.States, resp.Transitions = snap.States, snap.Transitions
	s = tr.begin(spEncode, hs, req, mi)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	tr.end(s, 1)
	if err != nil {
		return nil, http.StatusInternalServerError, nodes, err
	}
	return buf.Bytes(), http.StatusOK, nodes, nil
}

func machineIndex(name string) int {
	for i, n := range machineNames {
		if n == name {
			return i
		}
	}
	return -1
}

// serveInst is the single-node service: a warm five-machine registry, a
// compile server with two workers, and its HTTP front end on loopback.
type serveInst struct {
	c      *corpus
	seq    []*httpCase
	reg    *repro.Registry
	srv    *server.Server
	lb     *loopback
	client *http.Client
}

// clients is the number of closed-loop client goroutines (and
// connections): the container's two cores.
const clients = 2

// requestDraws is the length of the seeded request sequence the HTTP
// workloads cycle through.
const requestDraws = 4096

func planServe(e *env) (func() (instance, error), string, error) {
	seq := e.c.requestMix(rand.New(rand.NewPCG(e.seed, 4)), requestDraws)
	setup := func() (instance, error) {
		si := &serveInst{c: e.c, seq: seq, reg: repro.NewRegistry(), client: newClient(clients, nil)}
		for _, name := range machineNames {
			if err := si.reg.Add(name, repro.KindOnDemand, repro.Options{}); err != nil {
				return nil, err
			}
			if err := si.reg.Warm(name); err != nil {
				return nil, err
			}
		}
		si.srv = server.New(si.reg, server.Config{Workers: 2})
		var h http.Handler = server.NewHandler(si.srv)
		if e.tr != nil {
			mux := http.NewServeMux()
			mux.Handle("/", h)
			mux.Handle("POST "+tracedPath, &tracedHandler{srv: si.srv, tr: e.tr})
			h = mux
		}
		lb, err := listen(h)
		if err != nil {
			si.srv.Shutdown()
			return nil, err
		}
		si.lb = lb
		if err := warmHTTP(si.client, lb.url+"/compile", e.c); err != nil {
			si.close()
			return nil, err
		}
		return si, nil
	}
	return setup, hashSeq(httpIDs(seq)), nil
}

// warmHTTP sends every distinct request body once.
func warmHTTP(c *http.Client, url string, cp *corpus) error {
	var buf bytes.Buffer
	for _, set := range [][]httpCase{cp.minc, cp.trees} {
		for i := range set {
			if err := post(c, url, &set[i], 0, 0, &buf); err != nil {
				return fmt.Errorf("warm-up %s: %w", machineNames[set[i].m], err)
			}
		}
	}
	return nil
}

func (si *serveInst) close() {
	si.lb.close()
	si.client.CloseIdleConnections()
	si.srv.Shutdown()
}

// run drives the closed loop: each client goroutine walks the request
// sequence from its own offset, sending the next request when the last
// one's response has been read and checked. Traced, requests go to the
// traced handler under a client-side request span.
func (si *serveInst) run(d time.Duration, tr *tracer) *loopResult {
	parts := make([]*loopResult, clients)
	for g := range parts {
		parts[g] = &loopResult{lat: []*reservoir{newReservoir(latencySamples/clients, uint64(g)+7)}}
	}
	url := si.lb.url + "/compile"
	if tr != nil {
		url = si.lb.url + tracedPath
	}
	res := &loopResult{win: startWindow()}
	deadline := res.win.start.Add(d)
	var wg sync.WaitGroup
	for g, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := g * len(si.seq) / clients; ; k = (k + 1) % len(si.seq) {
				hc := si.seq[k]
				req := tr.newReq()
				root := tr.begin(spRequest, -1, req, hc.m)
				t0 := time.Now()
				err := post(si.client, url, hc, root, req, &buf)
				t1 := time.Now()
				part.lat[0].add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
				tr.end(root, hc.nodes)
				part.count(hc.nodes, hc.forests, err == nil)
				if !t1.Before(deadline) || (tr != nil && tr.full()) {
					return
				}
			}
		}()
	}
	wg.Wait()
	res.win.finish()
	for _, p := range parts {
		res.add(p)
	}
	return res
}
