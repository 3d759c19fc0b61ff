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
// them, then the router in front.
type testFleet struct {
	peers    []string
	servers  []*httptest.Server
	handlers []*bootingHandler
	replicas []*Replica
	router   *Router
	routerS  *httptest.Server
}

// bootFleet opens n listeners, boots n replicas over machines with the
// given replication factor, and fronts them with the router.
func bootFleet(t testing.TB, machines []string, n, replication int) *testFleet {
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
			Server:      server.Config{Workers: 2},
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

// Replicas boot from local tables only: two replicas owning both
// machines at rf=2 make no peer call before the first request (a no-op
// PeerSlow probe, which fires on every outbound peer call, never fires),
// and every owner serves each machine hybrid from a nonempty closure.
func TestReplicaBootMakesNoPeerCalls(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	defer faultinject.Arm(faultinject.PeerSlow, faultinject.Fault{})()
	machines := []string{"x86", "jit64"}
	f := bootFleet(t, machines, 2, 2)

	if got := faultinject.Fired(faultinject.PeerSlow); got != 0 {
		t.Fatalf("replicas made %d peer calls while booting, want 0", got)
	}
	for i, rep := range f.replicas {
		if len(rep.Owned()) != len(machines) {
			t.Fatalf("replica %d owns %v, want every machine at rf=2", i, rep.Owned())
		}
		for _, st := range rep.Registry().Status() {
			if st.Kind != repro.KindHybrid || !st.Constructed || st.Err != "" || st.Warmth.States == 0 {
				t.Fatalf("replica %d serves %s as %s (constructed=%v err=%q states=%d), want warm hybrid",
					i, st.Machine, st.Kind, st.Constructed, st.Err, st.Warmth.States)
			}
		}
	}
}

// writeBlob compiles m's tables into dir/<name>.isel, applying mutate to
// the bytes first when it is non-nil.
func writeBlob(t *testing.T, dir, name string, m *repro.Machine, mutate func([]byte)) {
	t.Helper()
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(res.Blob)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".isel"), res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func loadMachine(t *testing.T, name string) *repro.Machine {
	t.Helper()
	m, err := repro.LoadMachine(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A blob is validated end to end by the path a replica boots it through:
// ResolveBlobRecipe elects the engine from the header's fingerprint, and
// constructing that engine decodes the body (checksum, structure) and
// runs the table validator. A truncated blob, one with a flipped body
// byte, one generated for another machine and one whose tables hold a
// transition past the last state are each refused; good blobs serve.
func TestValidateBlob(t *testing.T) {
	dir := t.TempDir()
	serve := func(name string, blob []byte) error {
		path := filepath.Join(dir, name+".isel")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		rc, err := ResolveBlobRecipe(name, path)
		if err != nil {
			return err
		}
		_, err = rc.M.NewSelector(rc.Kind, rc.Opt)
		return err
	}
	compile := func(m *repro.Machine) []byte {
		res, err := gen.Compile(m.Grammar, gen.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Blob
	}

	blob := compile(loadMachine(t, "demo"))
	if err := serve("demo", blob); err != nil {
		t.Fatalf("good blob rejected: %v", err)
	}
	if err := serve("demo", blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0xff
	if err := serve("demo", flipped); err == nil {
		t.Fatal("bit-flipped blob accepted")
	}
	if err := serve("jit64", blob); err == nil || !strings.Contains(err.Error(), "matches neither machine") {
		t.Fatalf("blob for another machine: err = %v, want a fingerprint rejection", err)
	}

	// x86's tables re-encoded with one transition cell pointing past the
	// last state: framing, checksum and fingerprint all valid, so only
	// table validation can tell.
	x86 := loadMachine(t, "x86")
	res, err := gen.Compile(x86.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := serve("x86", res.Blob); err != nil {
		t.Fatalf("good x86 blob rejected: %v", err)
	}
	ts := res.Tables
	for op := range ts.T2 {
		if len(ts.T2[op]) > 0 {
			ts.T2[op][0] = int32(ts.NumStates() + 5)
			break
		}
	}
	bad, err := gen.EncodeBytes(x86.Grammar, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := serve("x86", bad); err == nil || !strings.Contains(err.Error(), "transition references state") {
		t.Fatalf("blob with an out-of-range transition: err = %v, want the table validator's rejection", err)
	}
}

// A <machine>.isel that iselgen wrote into PreloadDir is what the owner
// serves, through Options.PreloadPath: the fixed-subset blob elects the
// static engine and the full-grammar blob the hybrid, each passing
// gen.Decode (a no-op GenLoad probe counts the loads). A blob that cannot
// serve does not cost the owner its warmth: one with a corrupt body is
// quarantined to .bad by the registry, one generated for another machine
// is logged and skipped, and both machines serve hybrid from tables
// computed here.
func TestReplicaPreloadDirSeed(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	preload := t.TempDir()
	fixed, err := loadMachine(t, "jit64").FixedMachine()
	if err != nil {
		t.Fatal(err)
	}
	writeBlob(t, preload, "jit64", fixed, nil)
	writeBlob(t, preload, "x86", loadMachine(t, "x86"), nil)
	writeBlob(t, preload, "mips", loadMachine(t, "mips"), func(b []byte) { b[len(b)/2] ^= 0xff })
	writeBlob(t, preload, "alpha", loadMachine(t, "jit64"), nil)

	defer faultinject.Arm(faultinject.GenLoad, faultinject.Fault{})()
	var log []string
	self := "http://127.0.0.1:1" // never dialed: the replica asks no peer anything
	rep, err := NewReplica(ReplicaConfig{
		Self:        self,
		Peers:       []string{self},
		Machines:    []string{"jit64", "x86", "mips", "alpha"},
		Replication: 1,
		PreloadDir:  preload,
		Server:      server.Config{Workers: 1},
		Logf:        func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Shutdown()
	if got := faultinject.Fired(faultinject.GenLoad); got != 3 {
		t.Fatalf("boot decoded %d blobs, want the jit64, x86 and mips ones", got)
	}
	want := map[string]repro.Kind{"jit64": repro.KindStatic, "x86": repro.KindHybrid, "mips": repro.KindHybrid, "alpha": repro.KindHybrid}
	for _, st := range rep.Registry().Status() {
		if st.Kind != want[st.Machine] || !st.Constructed || st.Err != "" || st.Warmth.States == 0 {
			t.Fatalf("%s served as %s (constructed=%v err=%q states=%d), want warm %s",
				st.Machine, st.Kind, st.Constructed, st.Err, st.Warmth.States, want[st.Machine])
		}
	}
	if _, err := os.Stat(filepath.Join(preload, "mips.isel.bad")); err != nil {
		t.Fatalf("corrupt mips blob not quarantined: %v\n%s", err, strings.Join(log, "\n"))
	}
	if !strings.Contains(strings.Join(log, "\n"), "alpha: preload skipped") {
		t.Fatalf("jit64's blob under alpha.isel was not logged as skipped:\n%s", strings.Join(log, "\n"))
	}
}

// A /compile body one byte over server.MaxCompileBodyBytes is answered
// 413 by a standalone handler and by the router, which answers without
// proxying it, so without a retry; a body of exactly the bound compiles.
func TestCompileBodyBound(t *testing.T) {
	req, _ := json.Marshal(server.CompileRequest{Client: "c", Trees: "RET(ADD(REG[1], CNST[2]))"})
	exact := append(req, bytes.Repeat([]byte(" "), server.MaxCompileBodyBytes-len(req))...)
	over := append(append([]byte(nil), exact...), ' ')

	reg := repro.NewRegistry()
	if err := reg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Workers: 1})
	t.Cleanup(srv.Shutdown)
	standalone := httptest.NewServer(server.NewHandler(srv))
	t.Cleanup(standalone.Close)
	f := bootFleet(t, []string{"jit64"}, 1, 1)

	for _, base := range []string{standalone.URL, f.routerS.URL} {
		for _, c := range []struct {
			body []byte
			want int
		}{{over, http.StatusRequestEntityTooLarge}, {exact, http.StatusOK}} {
			resp, err := http.Post(base+"/compile?machine=jit64", "application/json", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("%s: %d-byte body answered %d, want %d", base, len(c.body), resp.StatusCode, c.want)
			}
		}
	}
	if fs := f.fleetStats(t); fs.Routing.Retries != 0 || fs.Routing.Proxied != 1 {
		t.Fatalf("routing stats %+v: want the over-bound body answered unproxied, with no retry", fs.Routing)
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
