package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/workload"
)

var bg = context.Background()

// loadUnits lowers the whole MinC workload corpus against machine's
// grammar: the mixed-unit traffic the stress tests replay.
func loadUnits(t testing.TB, m *repro.Machine) []*repro.Unit {
	t.Helper()
	var units []*repro.Unit
	for _, p := range workload.All() {
		u, err := m.CompileMinC(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		units = append(units, u)
	}
	return units
}

// oracle compiles every unit on a fresh single-threaded selector and
// returns the expected outputs plus the deterministic work counters of
// the whole session.
func oracle(t testing.TB, m *repro.Machine, kind repro.Kind, units []*repro.Unit, passes int) ([][]*repro.Output, metrics.Counters) {
	t.Helper()
	var om metrics.Counters
	sel, err := m.NewSelector(kind, repro.Options{Metrics: &om})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]*repro.Output
	for p := 0; p < passes; p++ {
		for _, u := range units {
			outs, err := sel.CompileUnit(bg, u)
			if err != nil {
				t.Fatal(err)
			}
			if p == 0 {
				want = append(want, outs)
			}
		}
	}
	return want, om.Clone()
}

// TestServerStress is the race/stress workhorse: N clients submit mixed
// units to one Server concurrently. Every future must resolve exactly
// once, every output must match the single-threaded oracle, and the
// merged per-client counters must equal the server-global counters —
// which in turn must equal the oracle's deterministic totals.
func TestServerStress(t *testing.T) {
	const (
		clients = 8
		passes  = 3
	)
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	units := loadUnits(t, m)
	// The oracle replays the traffic of every client: clients*passes
	// sequential passes over the corpus on one warm engine.
	want, wantCounters := oracle(t, m, repro.KindOnDemand, units, clients*passes)

	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately tight queue so submitters exercise backpressure.
	srv := server.NewSingle(sel, server.Config{Workers: 4, QueueDepth: 2})

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("client-%d", c)
			for p := 0; p < passes; p++ {
				for ui, u := range units {
					futs, err := srv.SubmitUnit(bg, name, "", u)
					if err != nil {
						errc <- err
						return
					}
					for fi, fut := range futs {
						out, err := fut.Wait()
						if err != nil {
							errc <- err
							return
						}
						w := want[ui][fi]
						if out.Asm != w.Asm || out.Cost != w.Cost || out.Instructions != w.Instructions {
							errc <- fmt.Errorf("client %d unit %d func %d: output differs from sequential", c, ui, fi)
							return
						}
						// A second Wait must return the same resolved value
						// (futures resolve exactly once and stay resolved).
						again, err2 := fut.Wait()
						if again != out || err2 != nil {
							errc <- fmt.Errorf("future re-wait returned a different result")
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	srv.Shutdown()

	// Per-client counters must merge exactly to the global counters.
	var merged metrics.Counters
	names := srv.Clients()
	if len(names) != clients {
		t.Fatalf("served %d clients, want %d: %v", len(names), clients, names)
	}
	for _, name := range names {
		cc := srv.ClientCounters(name)
		if cc.NodesLabeled == 0 {
			t.Errorf("client %s labeled no nodes", name)
		}
		merged.Add(&cc)
	}
	global := srv.GlobalCounters()
	if merged != global {
		t.Errorf("per-client counters do not sum to global:\n  merged: %v\n  global: %v", &merged, &global)
	}
	// The parallel session's totals are deterministic: they must equal
	// the single-threaded oracle's (clients*passes oracle passes ran).
	if global != wantCounters {
		t.Errorf("global counters differ from sequential oracle:\n  global: %v\n  oracle: %v", &global, &wantCounters)
	}

	st := srv.Stats()
	wantJobs := int64(0)
	for _, u := range units {
		wantJobs += int64(len(u.Funcs))
	}
	wantJobs *= clients * passes
	if st.Jobs != wantJobs {
		t.Errorf("jobs = %d, want %d", st.Jobs, wantJobs)
	}
	if st.Cancelled != 0 {
		t.Errorf("cancelled = %d, want 0 (no contexts ended)", st.Cancelled)
	}
	if len(st.Machines) != 1 || st.Machines[0].Warmth.States == 0 || st.Machines[0].Warmth.Transitions == 0 {
		t.Errorf("warmth snapshot empty: %+v", st.Machines)
	}
}

// TestServerMultiMachine: one server process hosts several machine
// descriptions behind one worker pool; each machine's jobs compile
// against its own engine and only that engine warms.
func TestServerMultiMachine(t *testing.T) {
	reg := repro.NewRegistry()
	for _, name := range []string{"x86", "jit64"} {
		if err := reg.Add(name, repro.KindOnDemand, repro.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, server.Config{Workers: 2})
	defer srv.Shutdown()

	// Lazy construction: nothing is built until traffic arrives.
	for _, ms := range srv.Stats().Machines {
		if ms.Constructed {
			t.Fatalf("machine %s constructed before any traffic", ms.Machine)
		}
	}

	x86, _, err := reg.Get("x86")
	if err != nil {
		t.Fatal(err)
	}
	units := loadUnits(t, x86)
	want, _ := oracle(t, x86, repro.KindOnDemand, units, 1)
	outs, err := srv.CompileUnit(bg, "c", "x86", units[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Asm != want[0][i].Asm {
			t.Fatalf("func %d: served output differs from direct", i)
		}
	}

	jit, _, err := reg.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	jitUnits := loadUnits(t, jit)
	if _, err := srv.CompileUnit(bg, "c", "jit64", jitUnits[0]); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if len(st.Machines) != 2 {
		t.Fatalf("stats report %d machines, want 2", len(st.Machines))
	}
	for _, ms := range st.Machines {
		if !ms.Constructed || ms.Warmth.States == 0 {
			t.Errorf("machine %s cold after traffic: %+v", ms.Machine, ms)
		}
	}

	// Unknown machines are refused at submission.
	if _, err := srv.Submit(bg, "c", "vax", units[0].Funcs[0].Forest); err == nil {
		t.Error("submit for unregistered machine must fail")
	}
	// The empty machine name lands on the default (first registered).
	fut, err := srv.Submit(bg, "c", "", units[0].Funcs[0].Forest)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := fut.Wait(); err != nil || out.Asm != want[0][0].Asm {
		t.Fatalf("default-machine output: %v, %v", out, err)
	}
}

// TestServerShutdown: Shutdown drains in-flight work, rejects later
// submissions, and is idempotent.
func TestServerShutdown(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	units := loadUnits(t, m)
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewSingle(sel, server.Config{Workers: 2})
	futs, err := srv.SubmitUnit(bg, "c", "", units[0])
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	srv.Shutdown() // idempotent
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("in-flight job failed across shutdown: %v", err)
		}
	}
	if _, err := srv.Submit(bg, "c", "", units[0].Funcs[0].Forest); err != server.ErrShutdown {
		t.Fatalf("submit after shutdown = %v, want ErrShutdown", err)
	}
	if _, err := srv.SubmitBatch(bg, "c", "", []*repro.Forest{units[0].Funcs[0].Forest}); err == nil {
		t.Fatal("batch after shutdown must fail")
	}
}

// TestSubmitCancelledContext: a context that ends before submission is
// refused outright; one that ends while the job sits in the queue
// resolves the job's future with ctx.Err() — the queued-then-cancelled
// contract of the v2 API.
func TestSubmitCancelledContext(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	units := loadUnits(t, m)
	f := units[0].Funcs[0].Forest
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled: refused at the door.
	srv := server.NewSingle(sel, server.Config{Workers: 1, QueueDepth: 1})
	defer srv.Shutdown()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := srv.Submit(cancelled, "c", "", f); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with cancelled ctx = %v, want context.Canceled", err)
	}

	// Queued-then-cancelled: stall the single worker with a slow job, let
	// a second job queue, cancel it, and require its future to resolve
	// with context.Canceled without being compiled.
	release := make(chan struct{})
	gateEnv := repro.DynEnv{"gate": func(n repro.DynNode) repro.Cost {
		<-release
		return 1
	}}
	gm, err := repro.NewMachine("gate", `%name gate
%start stmt
%term Asgn(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn gate)
stmt: Asgn(reg, reg) (1) "mov %1, (%0)"
`, gateEnv)
	if err != nil {
		t.Fatal(err)
	}
	gsel, err := gm.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := server.NewSingle(gsel, server.Config{Workers: 1, QueueDepth: 4})
	slow, err := gm.ParseTree("Asgn(Reg[1], Cnst[7])")
	if err != nil {
		t.Fatal(err)
	}
	slowFut, err := gsrv.Submit(bg, "c", "", slow)
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(bg)
	queued, err := gsrv.Submit(qctx, "c", "", slow)
	if err != nil {
		t.Fatal(err)
	}
	qcancel()
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued future did not resolve")
	}
	if _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-cancelled future = %v, want context.Canceled", err)
	}
	close(release)
	if _, err := slowFut.Wait(); err != nil {
		t.Fatalf("unrelated in-flight job failed: %v", err)
	}
	gsrv.Shutdown()
	if st := gsrv.Stats(); st.Cancelled == 0 {
		t.Errorf("stats cancelled = %d, want > 0", st.Cancelled)
	}
}

// TestRequestTimeout: Config.RequestTimeout bounds a job's lifetime; a
// compile that outlives it resolves with context.DeadlineExceeded while
// later jobs still run.
func TestRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	var gated atomic.Bool
	env := repro.DynEnv{"stall": func(n repro.DynNode) repro.Cost {
		if gated.Load() {
			<-block
		}
		return 1
	}}
	m, err := repro.NewMachine("stall", `%name stall
%start stmt
%term Asgn(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn stall)
stmt: Asgn(reg, reg) (1) "mov %1, (%0)"
`, env)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewSingle(sel, server.Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	defer srv.Shutdown()
	f, err := m.ParseTree("Asgn(Reg[1], Cnst[7])")
	if err != nil {
		t.Fatal(err)
	}
	gated.Store(true)
	fut, err := srv.Submit(bg, "c", "", f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled job = %v, want context.DeadlineExceeded", err)
	}
	gated.Store(false)
	close(block) // free the stuck worker
	fut2, err := srv.Submit(bg, "c", "", f)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := fut2.Wait(); err != nil || out.Asm == "" {
		t.Fatalf("job after timeout: out=%v err=%v", out, err)
	}
}

// TestServerCancelStress: mixed cancelled and completed clients under
// concurrency (this runs in the -race CI job). Every future must resolve
// — with the real output or with a context error — and the server must
// keep serving throughout.
func TestServerCancelStress(t *testing.T) {
	const clients = 8
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	units := loadUnits(t, m)
	want, _ := oracle(t, m, repro.KindOnDemand, units, 1)
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewSingle(sel, server.Config{Workers: 2, QueueDepth: 2})

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("client-%d", c)
			cancelling := c%2 == 1
			for ui, u := range units {
				ctx, cancel := context.WithCancel(bg)
				futs, err := srv.SubmitUnit(ctx, name, "", u)
				if err != nil && !errors.Is(err, context.Canceled) {
					cancel()
					errc <- err
					return
				}
				if cancelling {
					cancel() // races the workers: some jobs complete, some cancel
				}
				for fi, fut := range futs {
					out, err := fut.Wait()
					switch {
					case err == nil:
						w := want[ui][fi]
						if out.Asm != w.Asm || out.Cost != w.Cost {
							cancel()
							errc <- fmt.Errorf("client %d unit %d func %d: wrong output", c, ui, fi)
							return
						}
					case errors.Is(err, context.Canceled):
						if !cancelling {
							cancel()
							errc <- fmt.Errorf("client %d: spurious cancellation: %v", c, err)
							return
						}
					default:
						cancel()
						errc <- err
						return
					}
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	srv.Shutdown()

	// Accounting still balances: per-client counters sum to the global,
	// cancelled or not (partial work merges where it happened).
	var merged metrics.Counters
	for _, name := range srv.Clients() {
		cc := srv.ClientCounters(name)
		merged.Add(&cc)
	}
	if global := srv.GlobalCounters(); merged != global {
		t.Errorf("per-client counters do not sum to global:\n  merged: %v\n  global: %v", &merged, &global)
	}
	st := srv.Stats()
	if st.Jobs == 0 {
		t.Error("no jobs completed despite half the clients never cancelling")
	}
	t.Logf("cancel stress: %d done, %d cancelled", st.Jobs, st.Cancelled)
}

// TestServerContainsPanics: a dynamic-cost function that panics on one
// tree must fail that tree's future with an error — not kill the worker,
// strand later futures, or wedge Shutdown.
func TestServerContainsPanics(t *testing.T) {
	const src = `%name boom
%start stmt
%term Asgn(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn boom)
stmt: Asgn(reg, reg) (1) "mov %1, (%0)"
`
	env := repro.DynEnv{"boom": func(n repro.DynNode) repro.Cost {
		if n.Value() == 13 {
			panic("unlucky immediate")
		}
		return 1
	}}
	m, err := repro.NewMachine("boom", src, env)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewSingle(sel, server.Config{Workers: 2})
	bad, err := m.ParseTree("Asgn(Reg[1], Cnst[13])")
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.ParseTree("Asgn(Reg[1], Cnst[7])")
	if err != nil {
		t.Fatal(err)
	}
	futBad, err := srv.Submit(bg, "c", "", bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := futBad.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned tree future = %v, want contained panic error", err)
	}
	// The worker pool survived: later jobs still compile and Shutdown
	// still drains.
	futGood, err := srv.Submit(bg, "c", "", good)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := futGood.Wait(); err != nil || out.Asm == "" {
		t.Fatalf("job after contained panic: out=%v err=%v", out, err)
	}
	srv.Shutdown()
	if got := srv.Stats().Jobs; got != 2 {
		t.Errorf("jobs = %d, want 2 (the panicked job still counts as served)", got)
	}
}

// TestServerEngineKinds: the server front end works over every registered
// engine kind that constructs for the machine (dp has no tables, static
// needs the stripped grammar — the server does not care).
func TestServerEngineKinds(t *testing.T) {
	m, err := repro.LoadMachine("mips")
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := m.FixedMachine()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range repro.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			mk := m
			sel, err := m.NewSelector(kind, repro.Options{})
			if err != nil {
				// Offline automata cannot host dynamic rules; serve the
				// stripped grammar instead.
				mk = fixed
				sel, err = fixed.NewSelector(kind, repro.Options{})
				if err != nil {
					t.Fatal(err)
				}
			}
			units := loadUnits(t, mk)
			ref, err := sel.CompileUnit(bg, units[0])
			if err != nil {
				t.Fatal(err)
			}
			srv := server.NewSingle(sel, server.Config{Workers: 2})
			outs, err := srv.CompileUnit(bg, "k", "", units[0])
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if outs[i].Asm != ref[i].Asm || outs[i].Cost != ref[i].Cost {
					t.Fatalf("func %d: server output differs from direct CompileUnit", i)
				}
			}
			srv.Shutdown()
		})
	}
}

// TestStatsCountJobBeforeWaitReturns: a worker counts a job before its
// future resolves, so Stats read straight after Wait includes it. One
// client, one job at a time, so the count must equal the jobs waited for.
func TestStatsCountJobBeforeWaitReturns(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	reg := repro.NewRegistry()
	if err := reg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Workers: 2})
	defer srv.Shutdown()
	f, err := m.ParseTree("ADD(REG[1], CNST[2])")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3000; i++ {
		fut, err := srv.Submit(bg, "t", "jit64", f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().Jobs; got != i {
			t.Fatalf("after %d waited jobs Stats().Jobs = %d", i, got)
		}
	}
}

// TestHTTPHandler drives the HTTP/JSON protocol end to end: tree and MinC
// compiles against two machines from one process, per-machine stats, and
// error paths including the state-budget 503.
func TestHTTPHandler(t *testing.T) {
	reg := repro.NewRegistry()
	if err := reg.Add("x86", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	// A deliberately starved machine: its first compile exhausts the state
	// budget and must answer 503.
	if err := reg.Add("mips", repro.KindOnDemand, repro.Options{MaxStates: 1}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Workers: 2})
	defer srv.Shutdown()
	ts := httptest.NewServer(server.NewHandler(srv))
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Trees on the default machine (x86, first registered).
	resp, body := post("/compile", server.CompileRequest{Client: "t", Trees: "ASGN(ADDRL[-8], ADD(REG[1], CNST[2]))"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trees compile: %d %s", resp.StatusCode, body)
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Machine != "x86" || len(cr.Outputs) != 1 || cr.Outputs[0].Asm == "" || cr.States == 0 {
		t.Fatalf("unexpected compile response: %s", body)
	}

	// MinC on an explicitly selected second machine: one output per
	// function, served by jit64's own engine.
	resp, body = post("/compile?machine=jit64", server.CompileRequest{Client: "t", MinC: "int f(int x) { return x + 1; }\nint main() { return f(41); }"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("minc compile: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Machine != "jit64" || len(cr.Outputs) != 2 || cr.Outputs[0].Name != "f" || cr.Outputs[1].Name != "main" {
		t.Fatalf("unexpected minc response: %s", body)
	}

	// State budget exhausted: typed 503, not unbounded growth.
	resp, body = post("/compile?machine=mips", server.CompileRequest{Client: "t", MinC: "int main() { return 1 + 2; }"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("budget-capped machine: %d %s, want 503", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("state budget")) {
		t.Fatalf("503 body does not name the budget: %s", body)
	}

	// Errors: empty request, both inputs, bad tree, unknown machine.
	for _, req := range []server.CompileRequest{
		{},
		{Trees: "REG", MinC: "int main() { return 0; }"},
		{Trees: "NOSUCHOP(1)"},
	} {
		resp, _ := post("/compile", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		}
	}
	resp, _ = post("/compile?machine=vax", server.CompileRequest{Trees: "REG[1]"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown machine: status %d, want 404", resp.StatusCode)
	}

	// Stats reflect every registered machine and the named client.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Machines) != 3 {
		t.Fatalf("stats cover %d machines, want 3: %+v", len(st.Machines), st.Machines)
	}
	byName := map[string]server.MachineStats{}
	for _, ms := range st.Machines {
		byName[ms.Machine] = ms
	}
	if ms := byName["x86"]; !ms.Constructed || ms.States == 0 || ms.Kind != string(repro.KindOnDemand) {
		t.Errorf("x86 stats: %+v", ms)
	}
	if ms := byName["jit64"]; !ms.Constructed || ms.States == 0 {
		t.Errorf("jit64 stats: %+v", ms)
	}
	// 1 tree job + 2 jit64 minc jobs + 1 failed (budget) mips job, which
	// still counts as served.
	if st.Jobs != 4 || st.Clients["t"].NodesLabeled == 0 {
		t.Errorf("stats accounting: jobs=%d clients=%v", st.Jobs, st.Clients)
	}

	// Health.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}
