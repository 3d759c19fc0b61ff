package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/workload"
)

// The SV mid-traffic-swap scenario (iselbench -experiment SV -swap-at N)
// proves the hot-swap machinery safe the way PAPERS.md's CERTPLC wants
// properties proven: under injected faults, not just on the happy path.
// Each case replays multi-client traffic against a server and fires
// Registry.Swap after N jobs have resolved, mid-drain, then asserts the
// three swap invariants:
//
//  1. Zero failed requests — no job fails because of the cutover. Under
//     an injected fault, only the fault's own targets fail, each with
//     exactly its typed error (a panicking dynamic cost fn fails its one
//     job; a cancelled context fails with context.Canceled; a corrupt
//     blob fails nobody: the swap falls back to cold in-process tables
//     and the old version serves until they are ready).
//  2. Exact counter accounting across the version boundary — per-client
//     counters sum to the global counters even though jobs straddle two
//     table-set versions.
//  3. Warmth continuity — for persistence-capable engines the live
//     automaton transfers into the new version, so a post-swap
//     verification pass over the already-seen corpus misses zero times;
//     cold misses are reserved for genuinely new states.
//
// The budget case additionally pins the byte-budget rule: while two
// versions of the hot machine coexist (new serving + old draining), the
// registry evicts cold machines to stay under SetMaxTableBytes and never
// touches the in-drain old version.

// swapRow is one scenario case's outcome.
type swapRow struct {
	fault    string
	jobs     int64
	injected int64 // failures that match the injected fault exactly
	version  int   // serving version after the swap
	postMiss int64 // table misses of the post-swap verification pass (-1 = n/a)
	resident int   // peak resident bytes observed after cutover
	budget   int   // armed byte budget (0 = unarmed)
	note     string
}

// swapTraffic replays forests through srv from several clients and fires
// a scenario action once swapAt futures have resolved (mid-traffic, with
// jobs still queued and in flight).
type swapTraffic struct {
	srv      *server.Server
	machine  string
	forests  []*repro.Forest
	clients  int
	passes   int
	swapAt   int
	fire     func()           // runs in its own goroutine, exactly once
	classify func(error) bool // true = expected (injected) failure
}

// run drives the replay. It returns the number of resolved futures, the
// count of expected (classified) failures, and every unexpected failure
// message. The fire action is guaranteed to have completed.
func (tr *swapTraffic) run() (jobs, expected int64, unexpected []string) {
	total := tr.clients * tr.passes * len(tr.forests)
	swapAt := tr.swapAt
	if swapAt <= 0 || swapAt >= total {
		swapAt = total / 2
	}
	var resolved, injected atomic.Int64
	var mu sync.Mutex
	var bad []string
	fireDone := make(chan struct{})
	var fireOnce sync.Once
	fire := func() {
		fireOnce.Do(func() {
			go func() {
				defer close(fireDone)
				tr.fire()
			}()
		})
	}
	var wg sync.WaitGroup
	for c := 0; c < tr.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", c)
			for p := 0; p < tr.passes; p++ {
				for _, f := range tr.forests {
					fut, err := tr.srv.Submit(context.Background(), client, tr.machine, f)
					if err == nil {
						_, err = fut.Wait()
					}
					n := resolved.Add(1)
					if err != nil {
						if tr.classify != nil && tr.classify(err) {
							injected.Add(1)
						} else {
							mu.Lock()
							bad = append(bad, err.Error())
							mu.Unlock()
						}
					}
					if int(n) >= swapAt {
						fire()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	fire() // backstop: total traffic smaller than swapAt still swaps
	<-fireDone
	return resolved.Load(), injected.Load(), bad
}

// checkAccounting asserts the per-client counters sum exactly to the
// server-global counters — the invariant that must survive the cutover.
func checkAccounting(srv *server.Server, fault string) error {
	var merged metrics.Counters
	for _, name := range srv.Clients() {
		cc := srv.ClientCounters(name)
		merged.Add(&cc)
	}
	if global := srv.GlobalCounters(); merged != global {
		return fmt.Errorf("SV.swap %s: per-client counters do not sum to global across the version boundary:\n  merged: %v\n  global: %v",
			fault, &merged, &global)
	}
	return nil
}

// machineVersion reads one machine's serving status from the registry.
func machineVersion(reg *repro.Registry, name string) (repro.MachineStatus, error) {
	for _, st := range reg.Status() {
		if st.Machine == name {
			return st, nil
		}
	}
	return repro.MachineStatus{}, fmt.Errorf("machine %q not in registry status", name)
}

// postVerify replays the full corpus once as a dedicated client and
// returns that client's table misses — the warmth-continuity probe.
func postVerify(srv *server.Server, machine string, forests []*repro.Forest) (int64, error) {
	const client = "post-verify"
	for _, f := range forests {
		fut, err := srv.Submit(context.Background(), client, machine, f)
		if err != nil {
			return 0, fmt.Errorf("post-verify submit: %w", err)
		}
		if _, err := fut.Wait(); err != nil {
			return 0, fmt.Errorf("post-verify job: %w", err)
		}
	}
	return srv.ClientCounters(client).TableMisses, nil
}

// corpusForests lowers the whole MinC corpus on m, one forest per
// function — the per-job granularity the server replays at.
func corpusForests(m *repro.Machine) ([]*repro.Forest, error) {
	var fs []*repro.Forest
	for _, p := range workload.All() {
		u, err := m.CompileMinC(p.Src)
		if err != nil {
			return nil, err
		}
		for _, fn := range u.Funcs {
			fs = append(fs, fn.Forest)
		}
	}
	return fs, nil
}

// RunServerSwap runs the mid-traffic-swap scenario: the baseline swap
// under a byte budget, then one case per injected fault. Any violated
// invariant is returned as an error (iselbench exits nonzero — the CI
// smoke gate). swapAt <= 0 swaps at the traffic's halfway point.
func RunServerSwap(gname string, clients, workers, passes, swapAt int) (*Table, error) {
	if gname == "" {
		gname = "x86"
	}
	if clients <= 0 {
		clients = 4
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if passes <= 0 {
		passes = 6
	}
	other := "jit64"
	if gname == other {
		other = "mips"
	}

	t := &Table{
		ID: "SV.swap",
		Title: fmt.Sprintf("zero-downtime hot swap under traffic and injected faults on %s (%d clients, %d workers, %d passes, swap at job %d)",
			gname, clients, workers, passes, swapAt),
		Header: []string{"fault", "jobs", "injected-fails", "version", "post-miss", "resident", "budget", "note"},
	}

	cases := []struct {
		name string
		run  func() (swapRow, error)
	}{
		{"none+budget", func() (swapRow, error) { return swapBudgetCase(gname, other, clients, workers, passes, swapAt) }},
		{"corrupt-blob", func() (swapRow, error) { return swapCorruptBlobCase(gname, clients, workers, passes, swapAt) }},
		{"dyn-panic", func() (swapRow, error) { return swapDynCase(true, clients, workers, passes, swapAt) }},
		{"dyn-slow", func() (swapRow, error) { return swapDynCase(false, clients, workers, passes, swapAt) }},
		{"cancel-race", func() (swapRow, error) { return swapCancelCase(gname, clients, workers, passes, swapAt) }},
		{"queue-sat", func() (swapRow, error) { return swapQueueSatCase(gname, clients, passes, swapAt) }},
	}
	for _, c := range cases {
		row, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		postMiss := itoa(int(row.postMiss))
		if row.postMiss < 0 {
			postMiss = "n/a"
		}
		budget := itoa(row.budget)
		if row.budget == 0 {
			budget = "-"
		}
		t.AddRow(row.fault, itoa(int(row.jobs)), itoa(int(row.injected)), itoa(row.version),
			postMiss, itoa(row.resident), budget, row.note)
	}
	t.Note("invariants checked per case: zero unexpected failures, per-client counters sum to global across the cutover, version bumped, draining old version never evicted")
	t.Note("post-miss = table misses of a full post-swap corpus replay: 0 means the live warmth transferred into the new version")
	return t, nil
}

// swapBudgetCase: plain swap under a byte budget sized so that the swap's
// two coexisting versions of the hot machine force the cold machine out.
func swapBudgetCase(gname, other string, clients, workers, passes, swapAt int) (swapRow, error) {
	ms, err := loadSVMachines([]string{gname, other})
	if err != nil {
		return swapRow{}, err
	}
	reg, err := svRegistry(ms)
	if err != nil {
		return swapRow{}, err
	}
	reg.SetLogger(func(string, ...any) {})
	srv := server.New(reg, server.Config{Workers: workers})
	defer srv.Shutdown()
	for _, sm := range ms {
		for _, u := range sm.units {
			if _, err := srv.CompileUnit(context.Background(), "warmup", sm.name, u); err != nil {
				return swapRow{}, err
			}
		}
	}
	snaps := reg.Snapshots()
	mainBytes, otherBytes := snaps[gname].MemoryBytes, snaps[other].MemoryBytes
	// Room for two warm versions of the hot machine, but not for the cold
	// machine beside them: the swap must evict it to fit. Half the cold
	// machine's bytes of slack absorbs allocator jitter in the restored
	// copy (same states, slightly different slab sizes) without letting
	// the cold machine squeak through.
	budget := 2*mainBytes + otherBytes/2
	reg.SetMaxTableBytes(budget)

	forests, err := corpusForests(ms[0].m)
	if err != nil {
		return swapRow{}, err
	}
	var swapErr, drainErr error
	var peak atomic.Int64
	sampleStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	tr := &swapTraffic{
		srv: srv, machine: gname, forests: forests,
		clients: clients, passes: passes, swapAt: swapAt,
		fire: func() {
			// Hold a lease across the cutover — a job in flight on the old
			// version — so the drain window (both versions resident) is
			// observable deterministically, however fast the worker pool
			// drains the queue.
			lease, err := reg.Acquire(gname)
			if err != nil {
				swapErr = err
				return
			}
			oldVersion := lease.Version
			swapErr = srv.Swap(gname)
			if swapErr == nil {
				// Mid-drain: v(old) held by our lease, v(new) serving. The
				// budget must already hold, satisfied by evicting the cold
				// machine — never the draining version our lease pins.
				st, err := machineVersion(reg, gname)
				switch {
				case err != nil:
					drainErr = err
				case st.Version != oldVersion+1:
					drainErr = fmt.Errorf("serving version = %d mid-drain, want %d", st.Version, oldVersion+1)
				case st.Draining == 0:
					drainErr = fmt.Errorf("old version v%d not draining despite a live lease", oldVersion)
				}
				if drainErr == nil {
					if ost, err := machineVersion(reg, other); err != nil {
						drainErr = err
					} else if ost.Constructed {
						drainErr = fmt.Errorf("cold machine %s survived the budget squeeze; the swap must evict cold machines, never the draining version", other)
					}
				}
				if rb := reg.ResidentBytes(); drainErr == nil && rb > budget {
					drainErr = fmt.Errorf("resident bytes = %d mid-drain with two versions live, budget %d", rb, budget)
				}
			}
			lease.Release()
			// Sample resident bytes through the rest of the drain window.
			samplerWG.Add(1)
			go func() {
				defer samplerWG.Done()
				for {
					if rb := int64(reg.ResidentBytes()); rb > peak.Load() {
						peak.Store(rb)
					}
					select {
					case <-sampleStop:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
			}()
		},
	}
	jobs, _, bad := tr.run()
	close(sampleStop)
	samplerWG.Wait()
	if swapErr != nil {
		return swapRow{}, fmt.Errorf("swap failed: %w", swapErr)
	}
	if drainErr != nil {
		return swapRow{}, drainErr
	}
	if len(bad) > 0 {
		return swapRow{}, fmt.Errorf("%d jobs failed across the cutover, e.g. %s", len(bad), bad[0])
	}
	if err := checkAccounting(srv, "none+budget"); err != nil {
		return swapRow{}, err
	}
	st, err := machineVersion(reg, gname)
	if err != nil {
		return swapRow{}, err
	}
	if st.Version != 2 {
		return swapRow{}, fmt.Errorf("serving version = %d after one swap, want 2", st.Version)
	}
	if p := int(peak.Load()); p > budget {
		return swapRow{}, fmt.Errorf("resident bytes peaked at %d after cutover, budget %d", p, budget)
	}
	miss, err := postVerify(srv, gname, forests)
	if err != nil {
		return swapRow{}, err
	}
	if miss != 0 {
		return swapRow{}, fmt.Errorf("post-swap replay missed %d times; live warmth must transfer into the new version", miss)
	}
	return swapRow{
		fault: "none", jobs: jobs, version: st.Version, postMiss: miss,
		resident: int(peak.Load()), budget: budget,
		note: fmt.Sprintf("cold %s evicted to fit both %s versions", other, gname),
	}, nil
}

// swapCorruptBlobCase: the machine serves from an iselgen blob; the blob
// is truncated on disk before the swap re-reads it. The swap must
// quarantine the corrupt file, fall back to cold in-process tables, and
// fail no request — the corrupt-artifact deployment that must not take
// the machine down.
func swapCorruptBlobCase(gname string, clients, workers, passes, swapAt int) (swapRow, error) {
	m, err := repro.LoadMachine(gname)
	if err != nil {
		return swapRow{}, err
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		return swapRow{}, err
	}
	dir, err := os.MkdirTemp("", "svswap")
	if err != nil {
		return swapRow{}, err
	}
	defer os.RemoveAll(dir)
	blobPath := filepath.Join(dir, gname+".isel")
	if err := os.WriteFile(blobPath, res.Blob, 0o644); err != nil {
		return swapRow{}, err
	}

	reg := repro.NewRegistry()
	var logMu sync.Mutex
	var logged []string
	reg.SetLogger(func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	if err := reg.AddMachine(m, repro.KindHybrid, repro.Options{PreloadPath: blobPath}); err != nil {
		return swapRow{}, err
	}
	srv := server.New(reg, server.Config{Workers: workers})
	defer srv.Shutdown()
	forests, err := corpusForests(m)
	if err != nil {
		return swapRow{}, err
	}

	var swapErr error
	tr := &swapTraffic{
		srv: srv, machine: gname, forests: forests,
		clients: clients, passes: passes, swapAt: swapAt,
		fire: func() {
			// The deployment artifact goes bad on disk; the swap re-reads it.
			if err := os.WriteFile(blobPath, res.Blob[:len(res.Blob)/3], 0o644); err != nil {
				swapErr = err
				return
			}
			swapErr = srv.Swap(gname)
		},
	}
	jobs, _, bad := tr.run()
	if swapErr != nil {
		return swapRow{}, fmt.Errorf("swap with a corrupt blob must fall back to cold construction, got: %w", swapErr)
	}
	if len(bad) > 0 {
		return swapRow{}, fmt.Errorf("%d jobs failed across the corrupt-blob swap, e.g. %s", len(bad), bad[0])
	}
	if err := checkAccounting(srv, "corrupt-blob"); err != nil {
		return swapRow{}, err
	}
	if _, err := os.Stat(blobPath + ".bad"); err != nil {
		return swapRow{}, fmt.Errorf("corrupt blob must be quarantined to %s.bad: %w", blobPath, err)
	}
	logMu.Lock()
	quarantineLogged := false
	for _, l := range logged {
		if strings.Contains(l, "quarantined") {
			quarantineLogged = true
		}
	}
	logMu.Unlock()
	if !quarantineLogged {
		return swapRow{}, fmt.Errorf("quarantine must be logged")
	}
	st, err := machineVersion(reg, gname)
	if err != nil {
		return swapRow{}, err
	}
	if st.Version != 2 {
		return swapRow{}, fmt.Errorf("serving version = %d, want 2 (swap served from cold fallback tables)", st.Version)
	}
	return swapRow{
		fault: "corrupt-blob", jobs: jobs, version: st.Version, postMiss: -1,
		resident: reg.ResidentBytes(),
		note:     "blob quarantined to .bad; swap fell back to in-process tables",
	}, nil
}

// swapDynCase: a grammar-supplied dynamic cost function misbehaves
// mid-drain — panicking exactly once (panic=true: exactly one job fails,
// with the contained-panic error) or stalling on every call for a while
// (panic=false: jobs slow down, none fail).
func swapDynCase(doPanic bool, clients, workers, passes, swapAt int) (swapRow, error) {
	env := repro.DynEnv{"gate": func(n repro.DynNode) repro.Cost {
		// Harness-side injection seam: inert unless the scenario arms it.
		faultinject.Fire(faultinject.DynCost)
		return 1
	}}
	m, err := repro.NewMachine("swapdyn", `%name swapdyn
%start stmt
%term Asgn(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn gate)
stmt: Asgn(reg, reg) (1) "mov %1, (%0)"
`, env)
	if err != nil {
		return swapRow{}, err
	}
	var forests []*repro.Forest
	for i := 0; i < 24; i++ {
		f, err := m.ParseTree(fmt.Sprintf("Asgn(Reg[%d], Cnst[%d])", i%4, i))
		if err != nil {
			return swapRow{}, err
		}
		forests = append(forests, f)
	}
	reg := repro.NewRegistry()
	reg.SetLogger(func(string, ...any) {})
	if err := reg.AddMachine(m, repro.KindOnDemand, repro.Options{}); err != nil {
		return swapRow{}, err
	}
	srv := server.New(reg, server.Config{Workers: workers})
	defer srv.Shutdown()
	for _, f := range forests { // warm before measuring the swap
		fut, err := srv.Submit(context.Background(), "warmup", "swapdyn", f)
		if err != nil {
			return swapRow{}, err
		}
		if _, err := fut.Wait(); err != nil {
			return swapRow{}, err
		}
	}

	fault := faultinject.Fault{Delay: 300 * time.Microsecond, Count: 64}
	faultName := "dyn-slow"
	if doPanic {
		fault = faultinject.Fault{Panic: "injected dyn-cost panic", Count: 1}
		faultName = "dyn-panic"
	}
	classify := func(err error) bool {
		return doPanic && strings.Contains(err.Error(), "compile panicked") &&
			strings.Contains(err.Error(), "injected dyn-cost panic")
	}
	var disarm func()
	var swapErr, probeErr error
	tr := &swapTraffic{
		srv: srv, machine: "swapdyn", forests: forests,
		clients: clients, passes: passes, swapAt: swapAt,
		fire: func() {
			disarm = faultinject.Arm(faultinject.DynCost, fault)
			swapErr = srv.Swap("swapdyn")
			// Probe: these one-node jobs resolve in microseconds, so the
			// remaining traffic can drain before Arm even runs. Submitting
			// one job ourselves after arming guarantees at least one dyn
			// evaluation meets the fault, however the scheduling falls.
			fut, err := srv.Submit(context.Background(), "probe", "swapdyn", forests[0])
			if err == nil {
				_, err = fut.Wait()
			}
			probeErr = err
		},
		classify: classify,
	}
	jobs, injected, bad := tr.run()
	fired := faultinject.Fired(faultinject.DynCost)
	if disarm != nil {
		disarm()
	}
	if swapErr != nil {
		return swapRow{}, fmt.Errorf("swap failed: %w", swapErr)
	}
	if probeErr != nil {
		if !classify(probeErr) {
			return swapRow{}, fmt.Errorf("probe job failed beyond the injected fault: %v", probeErr)
		}
		injected++ // the probe ate the one armed panic
	}
	if len(bad) > 0 {
		return swapRow{}, fmt.Errorf("%d jobs failed beyond the injected fault, e.g. %s", len(bad), bad[0])
	}
	if doPanic {
		if injected != 1 || fired != 1 {
			return swapRow{}, fmt.Errorf("injected panic must fail exactly its one job: %d jobs failed, fault fired %d times", injected, fired)
		}
	} else if injected != 0 {
		return swapRow{}, fmt.Errorf("slow cost fns must not fail jobs, %d did", injected)
	}
	if err := checkAccounting(srv, faultName); err != nil {
		return swapRow{}, err
	}
	st, err := machineVersion(reg, "swapdyn")
	if err != nil {
		return swapRow{}, err
	}
	if st.Version != 2 {
		return swapRow{}, fmt.Errorf("serving version = %d, want 2", st.Version)
	}
	miss, err := postVerify(srv, "swapdyn", forests)
	if err != nil {
		return swapRow{}, err
	}
	if miss != 0 {
		return swapRow{}, fmt.Errorf("post-swap replay missed %d times, want 0 (dyn transitions transfer too)", miss)
	}
	note := "every job slow mid-drain, none failed"
	if doPanic {
		note = "exactly the panicked job failed, with the contained-panic error"
	}
	return swapRow{
		fault: faultName, jobs: jobs, injected: injected, version: st.Version,
		postMiss: miss, resident: reg.ResidentBytes(), note: note,
	}, nil
}

// swapCancelCase: a burst of submissions whose contexts are cancelled
// immediately races the cutover. The cancelled jobs resolve with their
// own ctx.Err(); nobody else fails; accounting stays exact even though
// the cancelled work straddles two versions.
func swapCancelCase(gname string, clients, workers, passes, swapAt int) (swapRow, error) {
	ms, err := loadSVMachines([]string{gname})
	if err != nil {
		return swapRow{}, err
	}
	reg, err := svRegistry(ms)
	if err != nil {
		return swapRow{}, err
	}
	reg.SetLogger(func(string, ...any) {})
	srv := server.New(reg, server.Config{Workers: workers})
	defer srv.Shutdown()
	forests, err := corpusForests(ms[0].m)
	if err != nil {
		return swapRow{}, err
	}
	for _, f := range forests {
		fut, err := srv.Submit(context.Background(), "warmup", gname, f)
		if err != nil {
			return swapRow{}, err
		}
		if _, err := fut.Wait(); err != nil {
			return swapRow{}, err
		}
	}

	var swapErr error
	var cancelBad []string
	var cancelled atomic.Int64
	tr := &swapTraffic{
		srv: srv, machine: gname, forests: forests,
		clients: clients, passes: passes, swapAt: swapAt,
		fire: func() {
			// Cancellation racing cutover: fire the burst and the swap
			// concurrently, then collect both.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var futWG sync.WaitGroup
				for i := 0; i < 32; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					fut, err := srv.Submit(ctx, "canceller", gname, forests[i%len(forests)])
					if err != nil {
						cancel()
						if !errors.Is(err, context.Canceled) {
							cancelBad = append(cancelBad, err.Error())
						}
						continue
					}
					cancel()
					futWG.Add(1)
					go func() {
						defer futWG.Done()
						if _, err := fut.Wait(); err != nil {
							if errors.Is(err, context.Canceled) {
								cancelled.Add(1)
							} else {
								cancelBad = append(cancelBad, err.Error())
							}
						}
					}()
				}
				futWG.Wait()
			}()
			swapErr = srv.Swap(gname)
			wg.Wait()
		},
	}
	jobs, _, bad := tr.run()
	if swapErr != nil {
		return swapRow{}, fmt.Errorf("swap failed: %w", swapErr)
	}
	if len(bad) > 0 {
		return swapRow{}, fmt.Errorf("%d steady jobs failed across the cutover, e.g. %s", len(bad), bad[0])
	}
	if len(cancelBad) > 0 {
		return swapRow{}, fmt.Errorf("cancelled submissions must fail with context.Canceled only, got e.g. %s", cancelBad[0])
	}
	if err := checkAccounting(srv, "cancel-race"); err != nil {
		return swapRow{}, err
	}
	st, err := machineVersion(reg, gname)
	if err != nil {
		return swapRow{}, err
	}
	if st.Version != 2 {
		return swapRow{}, fmt.Errorf("serving version = %d, want 2", st.Version)
	}
	miss, err := postVerify(srv, gname, forests)
	if err != nil {
		return swapRow{}, err
	}
	if miss != 0 {
		return swapRow{}, fmt.Errorf("post-swap replay missed %d times, want 0", miss)
	}
	return swapRow{
		fault: "cancel-race", jobs: jobs, injected: cancelled.Load(), version: st.Version,
		postMiss: miss, resident: reg.ResidentBytes(),
		note: fmt.Sprintf("%d racing submissions cancelled cleanly, steady traffic untouched", cancelled.Load()),
	}, nil
}

// swapQueueSatCase: the swap lands while the work queue is saturated
// (depth 1, blocking backpressure). Saturation must cost latency only —
// queued jobs drain on the version they resolved, none fail.
func swapQueueSatCase(gname string, clients, passes, swapAt int) (swapRow, error) {
	ms, err := loadSVMachines([]string{gname})
	if err != nil {
		return swapRow{}, err
	}
	reg, err := svRegistry(ms)
	if err != nil {
		return swapRow{}, err
	}
	reg.SetLogger(func(string, ...any) {})
	srv := server.New(reg, server.Config{Workers: 2, QueueDepth: 1})
	defer srv.Shutdown()
	forests, err := corpusForests(ms[0].m)
	if err != nil {
		return swapRow{}, err
	}
	for _, f := range forests {
		fut, err := srv.Submit(context.Background(), "warmup", gname, f)
		if err != nil {
			return swapRow{}, err
		}
		if _, err := fut.Wait(); err != nil {
			return swapRow{}, err
		}
	}
	if passes > 3 {
		passes = 3 // a depth-1 queue is deliberately slow; bound the case
	}
	var swapErr error
	tr := &swapTraffic{
		srv: srv, machine: gname, forests: forests,
		clients: clients, passes: passes, swapAt: swapAt,
		fire: func() { swapErr = srv.Swap(gname) },
	}
	jobs, _, bad := tr.run()
	if swapErr != nil {
		return swapRow{}, fmt.Errorf("swap failed: %w", swapErr)
	}
	if len(bad) > 0 {
		return swapRow{}, fmt.Errorf("%d jobs failed under queue saturation, e.g. %s", len(bad), bad[0])
	}
	if err := checkAccounting(srv, "queue-sat"); err != nil {
		return swapRow{}, err
	}
	st, err := machineVersion(reg, gname)
	if err != nil {
		return swapRow{}, err
	}
	if st.Version != 2 {
		return swapRow{}, fmt.Errorf("serving version = %d, want 2", st.Version)
	}
	miss, err := postVerify(srv, gname, forests)
	if err != nil {
		return swapRow{}, err
	}
	if miss != 0 {
		return swapRow{}, fmt.Errorf("post-swap replay missed %d times, want 0", miss)
	}
	return swapRow{
		fault: "queue-sat", jobs: jobs, version: st.Version, postMiss: miss,
		resident: reg.ResidentBytes(),
		note:     "depth-1 queue saturated through the cutover; latency only, no failures",
	}, nil
}
