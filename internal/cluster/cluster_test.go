package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/server"
)

// bootingHandler lets a listener serve before its replica exists: until
// the real handler is swapped in, every request answers 503 — what a
// still-booting fleet member looks like to its peers. (Unstarted
// httptest listeners are worse than a 503: they accept connections into
// the backlog and hang the caller for its full client timeout.)
type bootingHandler struct{ v atomic.Value }

type boxedHandler struct{ h http.Handler }

func newBootingHandler() *bootingHandler {
	b := &bootingHandler{}
	b.v.Store(boxedHandler{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "booting", http.StatusServiceUnavailable)
	})})
	return b
}

func (b *bootingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.v.Load().(boxedHandler).h.ServeHTTP(w, r)
}

func (b *bootingHandler) swapIn(h http.Handler) { b.v.Store(boxedHandler{h}) }

// testFleet is a booted in-process fleet for the integration tests: n
// listeners opened first (answering 503), replicas booted serially into
// them (so warmth flows through the exchange exactly as in deployment),
// then the router in front.
type testFleet struct {
	peers    []string
	servers  []*httptest.Server
	handlers []*bootingHandler
	replicas []*Replica
	router   *Router
	routerS  *httptest.Server

	mu  sync.Mutex
	log []string
}

func (f *testFleet) logf(i int) func(string, ...any) {
	return func(format string, args ...any) {
		f.mu.Lock()
		f.log = append(f.log, fmt.Sprintf("replica%d: ", i)+fmt.Sprintf(format, args...))
		f.mu.Unlock()
	}
}

func (f *testFleet) logLines() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

func (f *testFleet) countLog(substr string) int {
	n := 0
	for _, line := range f.logLines() {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// bootFleet opens n listeners, boots n replicas over machines with the
// given replication factor, and fronts them with the router.
func bootFleet(t *testing.T, machines []string, n, replication int) *testFleet {
	t.Helper()
	f := &testFleet{}
	t.Cleanup(func() {
		if f.routerS != nil {
			f.routerS.Close()
			f.router.Stop()
		}
		for i, s := range f.servers {
			if s == nil {
				continue
			}
			s.Close()
			if i < len(f.replicas) {
				f.replicas[i].Shutdown()
			}
		}
	})
	for i := 0; i < n; i++ {
		h := newBootingHandler()
		f.handlers = append(f.handlers, h)
		f.servers = append(f.servers, httptest.NewServer(h))
		f.peers = append(f.peers, f.servers[i].URL)
	}
	for i := 0; i < n; i++ {
		rep, err := NewReplica(ReplicaConfig{
			Self:        f.peers[i],
			Peers:       f.peers,
			Machines:    machines,
			Replication: replication,
			StoreDir:    filepath.Join(t.TempDir(), fmt.Sprintf("replica%d", i)),
			Server:      server.Config{Workers: 2},
			Logf:        f.logf(i),
		})
		if err != nil {
			t.Fatalf("booting replica %d: %v", i, err)
		}
		f.replicas = append(f.replicas, rep)
		f.handlers[i].swapIn(rep.Handler())
	}
	rt, err := NewRouter(RouterConfig{
		Peers:       f.peers,
		Machines:    machines,
		Replication: replication,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.routerS = httptest.NewServer(rt.Handler())
	return f
}

// compileVia posts one jit64 tree through the router for client, returning
// the response status (and failing the test on transport errors).
func (f *testFleet) compileVia(t *testing.T, machine, client string) int {
	t.Helper()
	body, _ := json.Marshal(server.CompileRequest{Client: client, Trees: "RET(ADD(REG[1], CNST[2]))"})
	resp, err := http.Post(f.routerS.URL+"/compile?machine="+machine, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("compile via router: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out server.CompileResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding compile response: %v", err)
		}
		if len(out.Outputs) == 0 || out.Outputs[0].Instructions == 0 {
			t.Fatalf("empty derivation: %+v", out)
		}
	}
	return resp.StatusCode
}

func (f *testFleet) fleetStats(t *testing.T) *FleetStats {
	t.Helper()
	resp, err := http.Get(f.routerS.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	return &fs
}

// The warm-state distribution plane end to end: with two replicas both
// owning both machines, serial boot must AOT-compile each machine exactly
// once fleet-wide — the second owner warm-starts from the first over the
// blob exchange — and both stores must converge on the same
// fingerprint-named artifact.
func TestReplicaBootWarmViaExchange(t *testing.T) {
	machines := []string{"demo", "jit64"}
	f := bootFleet(t, machines, 2, 2)

	if got := f.countLog("AOT-compiled here"); got != len(machines) {
		t.Fatalf("fleet paid %d AOT compilations for %d machines:\n%s",
			got, len(machines), strings.Join(f.logLines(), "\n"))
	}
	warm := f.countLog("warm-started from peer") + f.countLog("preloaded from a peer")
	if warm < len(machines) {
		t.Fatalf("second owner warm-started %d machines over the exchange, want %d:\n%s",
			warm, len(machines), strings.Join(f.logLines(), "\n"))
	}
	for _, m := range machines {
		var fps []string
		for i, rep := range f.replicas {
			path, hdr, ok := rep.Store().Lookup(m)
			if !ok {
				t.Fatalf("replica %d store has no artifact for %s", i, m)
			}
			fps = append(fps, fmt.Sprintf("%016x", hdr.Fingerprint))
			if base := filepath.Base(path); !strings.Contains(base, fps[len(fps)-1]) {
				t.Fatalf("replica %d stores %s under %q, not its fingerprint", i, m, base)
			}
		}
		if fps[0] != fps[1] {
			t.Fatalf("stores diverge for %s: fingerprints %v", m, fps)
		}
	}
	// Both owners serve warm: the router's shard view must agree.
	for _, sh := range f.fleetStats(t).Shards {
		if len(sh.WarmOwners) != 2 {
			t.Fatalf("shard %s warm on %v, want both owners", sh.Machine, sh.WarmOwners)
		}
	}
}

// Rung 2 of the warm-state ladder: a <machine>.isel dropped by iselgen in
// PreloadDir is adopted into the store, and the replica never compiles.
func TestReplicaPreloadDirSeed(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	preload := t.TempDir()
	if err := os.WriteFile(filepath.Join(preload, "jit64.isel"), res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var log []string
	self := "http://127.0.0.1:1" // never dialed: single owner, nothing to fetch
	rep, err := NewReplica(ReplicaConfig{
		Self:        self,
		Peers:       []string{self},
		Machines:    []string{"jit64"},
		Replication: 1,
		StoreDir:    filepath.Join(t.TempDir(), "store"),
		PreloadDir:  preload,
		Server:      server.Config{Workers: 1},
		Logf:        func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Shutdown()
	if _, hdr, ok := rep.Store().Lookup("jit64"); !ok || hdr.Fingerprint == 0 {
		t.Fatal("preload-dir artifact not adopted into the store")
	}
	for _, line := range log {
		if strings.Contains(line, "AOT-compiled here") {
			t.Fatalf("replica recompiled despite a valid preload artifact:\n%s", strings.Join(log, "\n"))
		}
	}
}

// The satellite-4 faultinject scenario: a replica starts failing compile
// intake the way a dying process does (ReplicaDeath → 503). The router
// must retry each failure on the machine's next owner so no client ever
// sees an error, the injected fault must have actually fired, and the
// quiescent fleet's per-client counters must still sum exactly to its
// global counters.
func TestRouterFailoverOnReplicaDeath(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := bootFleet(t, []string{"jit64"}, 3, 2)

	// rf=2 over 3 replicas: two owners plus one spillover candidate. Two
	// injected intake failures burn the owners on the first request; the
	// spillover still answers, so the client is whole.
	disarm := faultinject.Arm(faultinject.ReplicaDeath, faultinject.Fault{
		Err:   errors.New("injected: replica dying"),
		Count: 2,
	})
	defer disarm()

	const reqs = 5
	for i := 0; i < reqs; i++ {
		if code := f.compileVia(t, "jit64", fmt.Sprintf("client-%d", i%2)); code != http.StatusOK {
			t.Fatalf("request %d answered %d through the router; want every request whole", i, code)
		}
	}
	if got := faultinject.Fired(faultinject.ReplicaDeath); got != 2 {
		t.Fatalf("ReplicaDeath fired %d times, want 2", got)
	}

	fs := f.fleetStats(t)
	if fs.Routing.Proxied != reqs {
		t.Fatalf("router proxied %d requests, want %d", fs.Routing.Proxied, reqs)
	}
	if fs.Routing.Retries != 2 || fs.Routing.Failovers == 0 {
		t.Fatalf("routing stats %+v: want exactly 2 retries (one per injected death) and >= 1 failover", fs.Routing)
	}
	if fs.Jobs != reqs {
		t.Fatalf("fleet served %d jobs for %d whole requests", fs.Jobs, reqs)
	}
	var sum metrics.Counters
	for _, c := range fs.Clients {
		c := c
		sum.Add(&c)
	}
	if sum != fs.Global {
		t.Fatalf("fleet accounting violated after failover: clients sum to %+v, global %+v", sum, fs.Global)
	}
}

// PeerSlow's Err form is a partitioned peer: the router's outbound call
// fails at the transport, the peer is passively marked down, and the next
// candidate serves. The client never sees the partition.
func TestRouterFailoverOnPeerPartition(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := bootFleet(t, []string{"jit64"}, 3, 2)

	disarm := faultinject.Arm(faultinject.PeerSlow, faultinject.Fault{
		Err:   errors.New("injected: peer partitioned"),
		Count: 1,
	})
	defer disarm()

	if code := f.compileVia(t, "jit64", "part-client"); code != http.StatusOK {
		t.Fatalf("request through a partitioned primary answered %d", code)
	}
	if got := faultinject.Fired(faultinject.PeerSlow); got != 1 {
		t.Fatalf("PeerSlow fired %d times, want 1", got)
	}
	fs := f.fleetStats(t)
	if fs.Routing.Failovers != 1 {
		t.Fatalf("routing stats %+v: want exactly 1 failover past the partitioned primary", fs.Routing)
	}
	// The partitioned primary was passively marked down; a later request
	// must still succeed (candidates reorder around the belief).
	if code := f.compileVia(t, "jit64", "part-client"); code != http.StatusOK {
		t.Fatalf("request after the partition answered %d", code)
	}
}

// Satellite 3: the router's /readyz vouches for shards, not processes —
// 503 naming the cold shard while any served machine lacks a warm-ready
// owner, 200 only once every shard has one. Booting peers (alive but
// answering 503) must not count as warm.
func TestRouterReadyzUntilFleetWarm(t *testing.T) {
	machines := []string{"jit64"}
	// Two listeners up, both still "booting": processes are alive
	// (healthz-style liveness would pass) but no shard is warm.
	var handlers []*bootingHandler
	var servers []*httptest.Server
	var peers []string
	for i := 0; i < 2; i++ {
		h := newBootingHandler()
		s := httptest.NewServer(h)
		t.Cleanup(s.Close)
		handlers = append(handlers, h)
		servers = append(servers, s)
		peers = append(peers, s.URL)
	}
	rt, err := NewRouter(RouterConfig{Peers: peers, Machines: machines, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllLimited(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz over a booting fleet = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "jit64") {
		t.Fatalf("readyz should name the cold shard, said: %s", body)
	}

	// Boot the replicas into the waiting listeners; readyz flips to 200.
	for i := 0; i < 2; i++ {
		rep, err := NewReplica(ReplicaConfig{
			Self:        peers[i],
			Peers:       peers,
			Machines:    machines,
			Replication: 2,
			StoreDir:    filepath.Join(t.TempDir(), fmt.Sprintf("replica%d", i)),
			Server:      server.Config{Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Shutdown)
		handlers[i].swapIn(rep.Handler())
	}
	resp, err = http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz over a warm fleet = %d, want 200", resp.StatusCode)
	}
}

// A request for a machine the fleet does not serve is the client's
// mistake: the owners' 404 is relayed, never retried into a 502.
func TestRouterRelaysClientErrors(t *testing.T) {
	f := bootFleet(t, []string{"jit64"}, 2, 2)
	if code := f.compileVia(t, "nosuch", "c"); code != http.StatusNotFound {
		t.Fatalf("unknown machine through the router = %d, want 404 relayed", code)
	}
	fs := f.fleetStats(t)
	if fs.Routing.Retries != 0 {
		t.Fatalf("client error was retried %d times; 404 is not failover material", fs.Routing.Retries)
	}
}
