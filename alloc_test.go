// Allocation-regression guards for the warm path. The paper's pitch is
// that a warm on-demand automaton labels a node for "the cost of one table
// lookup"; these tests pin down the Go-side corollary — a warm label +
// reduce performs zero heap allocations, because labelings, reducer
// scratch and dynamic-cost buffers are all pooled and the transition
// tables are flat id arrays.
//
// The guards run in the -race CI job too (exercising the pooled paths
// under the detector), but the strict counts are only asserted in normal
// builds: under -race, sync.Pool randomly drops Put items by design.
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// warmSelector builds a selector for gname (stripped of dynamic rules if
// fixed) and warms it over the whole workload corpus.
func warmSelector(t *testing.T, gname string, fixed bool) (*repro.Selector, []*ir.Forest) {
	t.Helper()
	m, err := repro.LoadMachine(gname)
	if err != nil {
		t.Fatal(err)
	}
	if fixed {
		if m, err = m.FixedMachine(); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(m.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	for i := 0; i < 3; i++ { // warm: all states and transitions constructed
		for _, f := range fs {
			if _, err := sel.SelectCost(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sel, fs
}

func assertZeroAllocs(t *testing.T, what string, allocs float64) {
	t.Helper()
	t.Logf("%s: %.2f allocs/op", what, allocs)
	if raceEnabled {
		t.Log("race detector enabled: sync.Pool drops items by design; count not asserted")
		return
	}
	if allocs != 0 {
		t.Errorf("%s allocated %.2f times per op, want 0", what, allocs)
	}
}

// TestWarmSelectCostAllocFree: a warm label+reduce over a fixed-cost
// grammar must not allocate at all — the dense fast path plus the pooled
// reducer.
func TestWarmSelectCostAllocFree(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true)
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			sel.SelectCost(f)
		}
	})
	assertZeroAllocs(t, "warm SelectCost (fixed x86, whole corpus)", allocs)
}

// TestWarmDynSelectCostAllocFree: the same guarantee with dynamic rules
// active — the hit path probes the per-op hash with a no-copy view of the
// pooled signature bytes, so even dynamic-op nodes stay allocation-free
// once their transitions exist.
func TestWarmDynSelectCostAllocFree(t *testing.T) {
	sel, fs := warmSelector(t, "x86", false)
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			sel.SelectCost(f)
		}
	})
	assertZeroAllocs(t, "warm SelectCost (dynamic x86, whole corpus)", allocs)
}

// TestWarmOfflineSelectCostAllocFree: the static engine, serving
// ahead-of-time tables, makes the same warm-path promise as the on-demand
// one — and for it "warm" is the only state there is: tables are complete
// before the first request, so label + reduce must allocate nothing from
// call one (after one pass to fill the labeling/reducer pools).
func TestWarmOfflineSelectCostAllocFree(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := m.FixedMachine()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := fixed.NewSelector(repro.KindStatic, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(fixed.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	for _, f := range fs { // fill the pools; no states are constructed here
		if _, err := sel.SelectCost(f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			sel.SelectCost(f)
		}
	})
	assertZeroAllocs(t, "warm SelectCost (static x86.fixed, whole corpus)", allocs)
}

// TestWarmCostOnlyCompileAllocs: the v2 spelling of the same path —
// Compile(ctx, f, CostOnly()) — may allocate only its *Output result (the
// option closure is static and the variadic slice stays on the stack):
// nothing per node, nothing proportional to forest size.
func TestWarmCostOnlyCompileAllocs(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			sel.Compile(ctx, f, repro.CostOnly())
		}
	})
	perCall := allocs / float64(len(fs))
	t.Logf("warm CostOnly Compile: %.2f allocs/op over %d forests (%.2f per call)", allocs, len(fs), perCall)
	if raceEnabled {
		return
	}
	if perCall > 2 {
		t.Errorf("warm CostOnly Compile allocates %.2f per call, want <= 2 (the Output result only)", perCall)
	}
}

// TestWarmLabelReleaseAllocFree pins the engine-level contract: a warm
// LabelStates whose labeling is handed back with ReleaseLabeling reuses
// every buffer.
func TestWarmLabelReleaseAllocFree(t *testing.T) {
	d := md.MustLoad("x86")
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(d.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	for _, f := range fs {
		e.ReleaseLabeling(e.LabelStates(f))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			e.ReleaseLabeling(e.LabelStates(f))
		}
	})
	assertZeroAllocs(t, "warm LabelStates+Release (dynamic x86, whole corpus)", allocs)
}

// TestWarmHybridSelectCostAllocFree: the hybrid engine inherits both
// halves' warm contracts at once — overlay hits are plain loads on
// immutable arrays, fallthrough hits are the on-demand engine's pooled
// hash path — so a warm label+reduce on the FULL dynamic x86 grammar must
// allocate nothing.
func TestWarmHybridSelectCostAllocFree(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindHybrid, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(m.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	for i := 0; i < 3; i++ { // warm the dynamic fallthrough transitions
		for _, f := range fs {
			if _, err := sel.SelectCost(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			sel.SelectCost(f)
		}
	})
	assertZeroAllocs(t, "warm SelectCost (hybrid x86 full grammar, whole corpus)", allocs)
}

// TestWarmHybridCompileAllocsAreResultOnly: a warm full hybrid Compile —
// label across the fixed/dynamic boundary, reduce, emit — allocates
// exactly one *Output per forest, matching the on-demand engine's
// contract from PR 6.
func TestWarmHybridCompileAllocsAreResultOnly(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindHybrid, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(m.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm transitions, emitter pool and interner
		for _, f := range fs {
			if _, err := sel.Compile(ctx, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, f := range fs {
			sel.Compile(ctx, f)
		}
	})
	t.Logf("warm hybrid Compile: %.1f allocs per corpus pass over %d forests", allocs, len(fs))
	if raceEnabled {
		return
	}
	if allocs != float64(len(fs)) {
		t.Errorf("warm hybrid Compile allocates %.1f per corpus pass, want exactly %d (one *Output per call)",
			allocs, len(fs))
	}
}

// TestWarmCompileObservedAllocsAreResultOnly: the telemetry plane must
// be paid for — a warm CompileObserved carrying live counters AND a
// pooled trace allocates exactly what plain Compile does: one *Output
// per call. Stage marks are monotonic clock reads into a fixed struct;
// histogram records (done by the server, not here) are atomic adds.
// This is the "zero-overhead" in the telemetry plane's contract.
func TestWarmCompileObservedAllocsAreResultOnly(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true)
	ctx := context.Background()
	var jm repro.Counters
	var pool telemetry.TracePool
	for _, f := range fs { // warm the emitter pool and intern the asm texts
		tr := pool.Get("x86", "ondemand", "alloc-test")
		if _, err := sel.CompileObserved(ctx, f, &jm, tr); err != nil {
			t.Fatal(err)
		}
		pool.Put(tr)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, f := range fs {
			tr := pool.Get("x86", "ondemand", "alloc-test")
			sel.CompileObserved(ctx, f, &jm, tr)
			pool.Put(tr)
		}
	})
	t.Logf("warm CompileObserved: %.1f allocs per corpus pass over %d forests", allocs, len(fs))
	if raceEnabled {
		return
	}
	if allocs != float64(len(fs)) {
		t.Errorf("warm CompileObserved allocates %.1f per corpus pass, want exactly %d (telemetry must be free)",
			allocs, len(fs))
	}
}

// TestWarmCompileAllocsAreResultOnly: a full warm Compile allocates
// exactly its *Output result and nothing else — zero allocations per
// node. The emit layer's operand text lives in per-emitter arenas, the
// virtual-register names and bookkeeping slices are reused across Reset,
// and the assembly string of previously compiled code comes from the
// selector's interner instead of a fresh copy. One warm-up pass through
// Compile (SelectCost warming in warmSelector never touches the
// emitters) fills the emitter pool and the interner before counting.
func TestWarmCompileAllocsAreResultOnly(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true)
	nodes := 0
	for _, f := range fs {
		nodes += f.NumNodes()
	}
	ctx := context.Background()
	for _, f := range fs { // warm the emitter pool and intern the asm texts
		if _, err := sel.Compile(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, f := range fs {
			sel.Compile(ctx, f)
		}
	})
	perNode := (allocs - float64(len(fs))) / float64(nodes)
	t.Logf("warm Compile: %.1f allocs per corpus pass over %d forests, %.3f/node over %d nodes",
		allocs, len(fs), perNode, nodes)
	if raceEnabled {
		return
	}
	if allocs != float64(len(fs)) {
		t.Errorf("warm Compile allocates %.1f per corpus pass, want exactly %d (one *Output per call, 0/node)",
			allocs, len(fs))
	}
}
