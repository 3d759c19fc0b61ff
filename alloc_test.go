// Allocation-regression guards for the warm path. The paper's pitch is
// that a warm on-demand automaton labels a node for "the cost of one table
// lookup"; these tests pin down the Go-side corollary — a warm Compile
// allocates exactly its *Output result: label, reduce and emit allocate
// nothing, because labelings, reducer scratch, dynamic-cost buffers and
// emitters are all pooled and the transition tables are flat id arrays.
// The same holds with the serving tier's per-call options attached. The
// cold side has a guard too: a fresh emitter, which every emitter-pool
// miss and cold session gets, allocates in proportion to what it visits.
//
// The guards run in the -race CI job too (exercising the pooled paths
// under the detector), but the strict counts are only asserted in normal
// builds: under -race, sync.Pool randomly drops Put items by design.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// warmSelector builds a selector of kind for gname (stripped of dynamic
// rules if fixed) and warms it over the whole workload corpus: every
// state and transition constructed, the emitter pool filled and the
// assembly texts interned.
func warmSelector(t *testing.T, gname string, fixed bool, kind repro.Kind) (*repro.Selector, []*ir.Forest) {
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
	sel, err := m.NewSelector(kind, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(m.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, f := range fs {
			if _, err := sel.Compile(ctx, f); err != nil {
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

// assertCompileAllocsAreResultOnly checks that a warm corpus pass of
// compile allocates exactly one *Output per forest.
func assertCompileAllocsAreResultOnly(t *testing.T, what string, fs []*ir.Forest, compile func(*ir.Forest)) {
	t.Helper()
	allocs := testing.AllocsPerRun(50, func() {
		for _, f := range fs {
			compile(f)
		}
	})
	t.Logf("warm %s: %.1f allocs per corpus pass over %d forests", what, allocs, len(fs))
	if raceEnabled {
		return
	}
	if allocs != float64(len(fs)) {
		t.Errorf("warm %s allocates %.1f per corpus pass, want exactly %d (one *Output per call)",
			what, allocs, len(fs))
	}
}

// bareCompile is a warm selector's Compile with no options.
func bareCompile(sel *repro.Selector) func(*ir.Forest) {
	return func(f *ir.Forest) { sel.Compile(context.Background(), f) }
}

// assertLabelReduceAllocFree checks that a warm corpus pass of label plus
// cost-only reduce — Selector.Label, a reducer over the machine's
// grammar, and the labeling handed back to the engine, which is what
// Compile runs before it emits — allocates nothing at all: of Compile's
// one allocation, label and reduce owe none.
func assertLabelReduceAllocFree(t *testing.T, what string, sel *repro.Selector, fs []*ir.Forest) {
	t.Helper()
	m := sel.Machine()
	rd, err := reduce.New(m.Grammar, m.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := sel.Labeler().(reduce.LabelingRecycler)
	if !ok {
		t.Fatalf("%s engine %T does not recycle labelings", what, sel.Labeler())
	}
	pass := func() {
		for _, f := range fs {
			lab, err := sel.Label(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rd.Cover(f, lab, nil); err != nil {
				t.Fatal(err)
			}
			rc.ReleaseLabeling(lab)
		}
	}
	pass() // fill the reducer's scratch pool
	assertZeroAllocs(t, "warm label+reduce ("+what+", whole corpus)", testing.AllocsPerRun(100, pass))
}

// TestWarmSelectCostAllocFree: a warm label+reduce over a fixed-cost
// grammar must not allocate at all — the dense fast path plus the pooled
// reducer.
func TestWarmSelectCostAllocFree(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true, repro.KindOnDemand)
	assertLabelReduceAllocFree(t, "on-demand x86.fixed", sel, fs)
}

// TestWarmHybridSelectCostAllocFree: the hybrid engine is the on-demand
// engine seeded — seeded hits are dense table loads, dynamic hits the
// pooled hash path — so a warm label+reduce on the FULL dynamic x86
// grammar must allocate nothing.
func TestWarmHybridSelectCostAllocFree(t *testing.T) {
	sel, fs := warmSelector(t, "x86", false, repro.KindHybrid)
	assertLabelReduceAllocFree(t, "hybrid x86", sel, fs)
}

// TestWarmCompileAllocsAreResultOnly: a full warm Compile on the dense
// fast path (fixed x86, on-demand) allocates exactly its *Output result
// and nothing else — zero allocations per node. The emit layer's operand
// text lives in per-emitter arenas, the virtual-register names and
// bookkeeping slices are reused across Reset, and the assembly string of
// previously compiled code comes from the selector's interner instead of
// a fresh copy.
func TestWarmCompileAllocsAreResultOnly(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true, repro.KindOnDemand)
	assertCompileAllocsAreResultOnly(t, "Compile (on-demand x86.fixed)", fs, bareCompile(sel))
}

// TestWarmDynCompileAllocsAreResultOnly: the same guarantee with dynamic
// rules active — the hit path probes the per-op hash with a no-copy view
// of the pooled signature bytes, so even dynamic-op nodes stay
// allocation-free once their transitions exist.
func TestWarmDynCompileAllocsAreResultOnly(t *testing.T) {
	sel, fs := warmSelector(t, "x86", false, repro.KindOnDemand)
	assertCompileAllocsAreResultOnly(t, "Compile (on-demand x86)", fs, bareCompile(sel))
}

// TestWarmStaticCompileAllocsAreResultOnly: the static engine, serving
// ahead-of-time tables, makes the same warm-path promise as the on-demand
// one — and for it "warm" is the only state there is: tables are complete
// before the first request, so the warm-up passes only fill the pools.
func TestWarmStaticCompileAllocsAreResultOnly(t *testing.T) {
	sel, fs := warmSelector(t, "x86", true, repro.KindStatic)
	assertCompileAllocsAreResultOnly(t, "Compile (static x86.fixed)", fs, bareCompile(sel))
}

// TestWarmHybridCompileAllocsAreResultOnly: the hybrid engine's warm
// contracts carry through emit — a warm Compile on the FULL dynamic x86
// grammar, labeling across the fixed/dynamic boundary, allocates only
// its *Output.
func TestWarmHybridCompileAllocsAreResultOnly(t *testing.T) {
	sel, fs := warmSelector(t, "x86", false, repro.KindHybrid)
	assertCompileAllocsAreResultOnly(t, "Compile (hybrid x86)", fs, bareCompile(sel))
}

// TestWarmCompileObservedAllocsAreResultOnly: the options must be paid
// for — on every configuration the bare guards above cover, a warm
// Compile carrying live counters, a pooled trace and a worker count
// allocates exactly what the bare one does: one *Output per call.
// Options are plain values, stage marks are monotonic clock reads into a
// fixed struct, and Compile labels its one forest sequentially whatever
// the worker count; histogram records (done by the server, not here) are
// atomic adds.
func TestWarmCompileObservedAllocsAreResultOnly(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		gname string
		fixed bool
		kind  repro.Kind
	}{
		{"x86", true, repro.KindOnDemand},
		{"x86", false, repro.KindOnDemand},
		{"x86", true, repro.KindStatic},
		{"x86", false, repro.KindHybrid},
	} {
		sel, fs := warmSelector(t, c.gname, c.fixed, c.kind)
		var jm repro.Counters
		var pool telemetry.TracePool
		observed := func(f *ir.Forest) {
			tr := pool.Get(sel.Machine().Name, string(sel.Kind()), "alloc-test")
			if _, err := sel.Compile(ctx, f, repro.WithCounters(&jm), repro.WithTrace(tr), repro.WithWorkers(4)); err != nil {
				t.Fatal(err)
			}
			pool.Put(tr)
		}
		for _, f := range fs { // fill the trace pool
			observed(f)
		}
		assertCompileAllocsAreResultOnly(t, fmt.Sprintf("Compile(WithCounters, WithTrace, WithWorkers(4)) (%s %s)", c.kind, sel.Machine().Name),
			fs, observed)
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

// freshEmitBudget bounds what a fresh emitter allocates to emit one
// corpus forest. Its storage grows with the reducer's visits, so even the
// largest forest needs a few tens of KB.
const freshEmitBudget = 128 << 10

// TestFreshEmitterAllocBudget: on every corpus machine, emit.New plus one
// Cover of the largest corpus forest allocates at most freshEmitBudget
// bytes. The labeling and the reducer's scratch are made before the
// measurement, so the TotalAlloc delta is the emitter's own.
func TestFreshEmitterAllocBudget(t *testing.T) {
	for _, name := range corpusMachines {
		m, err := repro.LoadMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		var largest *ir.Forest
		for _, c := range workload.MustCompileAll(m.Grammar) {
			for _, f := range c.Forests() {
				if largest == nil || len(f.Nodes) > len(largest.Nodes) {
					largest = f
				}
			}
		}
		sel, err := m.NewSelector(repro.KindDP, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lab, err := sel.Label(largest)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := reduce.New(m.Grammar, m.Env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Cover(largest, lab, nil); err != nil { // fill the reducer's scratch pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		em := emit.New(m.Grammar)
		_, err = rd.Cover(largest, lab, em.Visitor())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: fresh emitter over a %d-node forest (%d instructions) allocated %d B",
			name, len(largest.Nodes), em.Instructions(), got)
		if got > freshEmitBudget {
			t.Errorf("%s: a fresh emitter allocated %d B for a %d-node forest, want at most %d",
				name, got, len(largest.Nodes), freshEmitBudget)
		}
	}
}

// TestLoadMachineAllocBudget: parsing a machine description allocates
// what the Grammar keeps and little else — no fmt on the success path, no
// heap token per lookahead, no growth of the rule list, no allocation per
// pattern node. The budgets sit as far above the measured counts (x86
// 346, the others 145–187) as they did when each pattern node was its own
// allocation (x86 860 under 2,000, the others 328–407 under 900), and well
// below a parser that makes garbage per token or per rule (x86 3,130, the
// others 1,143–1,373).
func TestLoadMachineAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget float64
	}{
		{"x86", 805}, {"mips", 415}, {"sparc", 415}, {"alpha", 415}, {"jit64", 415},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := md.Load(c.name); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("md.Load(%q): %.0f allocs", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("md.Load(%q) allocated %.0f times, want at most %.0f", c.name, allocs, c.budget)
		}
	}
}

// coldLabelBudget bounds what a fresh x86 on-demand engine allocates to
// label the corpus once: the states it is born with, their class matrix,
// the class grids and hash tables they fill, and the labelings, but no
// per-construction garbage. The pass allocates about 104 KB (228 KB when
// transitions were keyed by child state id).
const coldLabelBudget = 144 << 10

// TestColdLabelAllocBudget: a fresh x86 engine's first corpus pass, every
// state and transition constructed on a miss, allocates at most
// coldLabelBudget bytes by TotalAlloc. Construction computes into the
// labeling call's scratch, the state table copies vectors only when a
// state is born, and tables grow by class rather than by state, so a miss
// that finds its state or its class allocates nothing.
func TestColdLabelAllocBudget(t *testing.T) {
	d := md.MustLoad("x86")
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(d.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range fs {
		e.ReleaseLabeling(e.LabelStates(f))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold x86 corpus pass: %d states, %d transitions, %d B allocated",
		e.NumStates(), e.NumTransitions(), got)
	if got > coldLabelBudget {
		t.Errorf("a fresh x86 engine allocated %d B to label the corpus once, want at most %d", got, coldLabelBudget)
	}
}
