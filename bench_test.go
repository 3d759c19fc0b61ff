// Root benchmarks: one testing.B entry per experiment table/figure (E1–E8,
// the RunE* functions of internal/bench). Work-unit tables come from
// cmd/iselbench; these benchmarks supply the wall-clock and allocation
// analogues (`go test -bench=. -benchmem`).
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/emit"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
	"repro/internal/workload"
)

// corpus caches lowered workloads per grammar name.
var corpusCache = map[string][]*ir.Forest{}

func corpus(b *testing.B, gname string) []*ir.Forest {
	b.Helper()
	if fs, ok := corpusCache[gname]; ok {
		return fs
	}
	d := md.MustLoad(gname)
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(d.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	corpusCache[gname] = fs
	return fs
}

func corpusNodes(fs []*ir.Forest) int {
	n := 0
	for _, f := range fs {
		n += f.NumNodes()
	}
	return n
}

// ---------------------------------------------------------------------------
// E1 — offline automaton generation cost (the price burg pays up front)

func benchStaticGen(b *testing.B, gname string) {
	d := md.MustLoad(gname)
	fixed, err := d.Grammar.StripDynamic()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, st, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if st.States == 0 {
			b.Fatal("no states")
		}
	}
}

func BenchmarkE1StaticGenDemo(b *testing.B)  { benchStaticGen(b, "demo") }
func BenchmarkE1StaticGenX86(b *testing.B)   { benchStaticGen(b, "x86") }
func BenchmarkE1StaticGenMips(b *testing.B)  { benchStaticGen(b, "mips") }
func BenchmarkE1StaticGenSparc(b *testing.B) { benchStaticGen(b, "sparc") }
func BenchmarkE1StaticGenAlpha(b *testing.B) { benchStaticGen(b, "alpha") }
func BenchmarkE1StaticGenJit64(b *testing.B) { benchStaticGen(b, "jit64") }

// ---------------------------------------------------------------------------
// E2/E3 — on-demand automaton construction over a whole corpus (cold)

func benchOnDemandBuild(b *testing.B, gname string) {
	d := md.MustLoad(gname)
	fs := corpus(b, gname)
	nodes := corpusNodes(fs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := core.New(d.Grammar, d.Env, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fs {
			e.Label(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

func BenchmarkE2OnDemandBuildX86(b *testing.B)   { benchOnDemandBuild(b, "x86") }
func BenchmarkE2OnDemandBuildMips(b *testing.B)  { benchOnDemandBuild(b, "mips") }
func BenchmarkE2OnDemandBuildSparc(b *testing.B) { benchOnDemandBuild(b, "sparc") }
func BenchmarkE2OnDemandBuildAlpha(b *testing.B) { benchOnDemandBuild(b, "alpha") }
func BenchmarkE2OnDemandBuildJit64(b *testing.B) { benchOnDemandBuild(b, "jit64") }

// BenchmarkE3Convergence measures the cold pass including the state
// constructions the convergence curve records (same work as E2, kept as a
// named anchor for the figure).
func BenchmarkE3Convergence(b *testing.B) { benchOnDemandBuild(b, "x86") }

// ---------------------------------------------------------------------------
// E4 — labeling per node: dp vs warm on-demand vs static

func benchLabelDP(b *testing.B, gname string) {
	d := md.MustLoad(gname)
	fs := corpus(b, gname)
	nodes := corpusNodes(fs)
	l, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			l.Label(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

func benchLabelOnDemandWarm(b *testing.B, gname string) {
	d := md.MustLoad(gname)
	fs := corpus(b, gname)
	nodes := corpusNodes(fs)
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fs { // warm up
		e.ReleaseLabeling(e.LabelStates(f))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			// Release keeps the warm path allocation-free: the labeling's
			// buffers recycle through the engine's pool.
			e.ReleaseLabeling(e.LabelStates(f))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

func benchLabelStatic(b *testing.B, gname string) {
	d := md.MustLoad(gname)
	fixed, err := d.Grammar.StripDynamic()
	if err != nil {
		b.Fatal(err)
	}
	ts, _, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewSeeded(fixed, nil, core.Config{}, ts)
	if err != nil {
		b.Fatal(err)
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(fixed) {
		fs = append(fs, c.Forests()...)
	}
	nodes := corpusNodes(fs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			a.LabelStates(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

func BenchmarkE4LabelDPX86(b *testing.B)            { benchLabelDP(b, "x86") }
func BenchmarkE4LabelDPMips(b *testing.B)           { benchLabelDP(b, "mips") }
func BenchmarkE4LabelDPSparc(b *testing.B)          { benchLabelDP(b, "sparc") }
func BenchmarkE4LabelDPAlpha(b *testing.B)          { benchLabelDP(b, "alpha") }
func BenchmarkE4LabelDPJit64(b *testing.B)          { benchLabelDP(b, "jit64") }
func BenchmarkE4LabelOnDemandWarmX86(b *testing.B)  { benchLabelOnDemandWarm(b, "x86") }
func BenchmarkE4LabelOnDemandWarmMips(b *testing.B) { benchLabelOnDemandWarm(b, "mips") }
func BenchmarkE4LabelOnDemandWarmJit64(b *testing.B) {
	benchLabelOnDemandWarm(b, "jit64")
}
func BenchmarkE4LabelStaticX86(b *testing.B)   { benchLabelStatic(b, "x86") }
func BenchmarkE4LabelStaticJit64(b *testing.B) { benchLabelStatic(b, "jit64") }

// ---------------------------------------------------------------------------
// The warm-path anchor: what one fully-warm compilation costs, end to end.
// This is the benchmark the PR-over-PR BENCH_PR*.json trajectory tracks
// (see cmd/iselbench -experiment PF). allocs/op is the headline: label and
// select are pooled end to end, so "label" and "select" must report ~0
// allocations; "compile" additionally pays the emit result arena (the
// returned assembly strings), which is the output, not overhead.

func BenchmarkOnDemandWarm(b *testing.B) {
	d := md.MustLoad("x86")
	fs := corpus(b, "x86")
	nodes := corpusNodes(fs)
	m := &repro.Machine{Name: "x86", Grammar: d.Grammar, Env: d.Env}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fs { // warm: every transition constructed
		if _, err := sel.Compile(context.Background(), f); err != nil {
			b.Fatal(err)
		}
	}
	eng := sel.Labeler().(*core.Engine)
	rd, err := reduce.New(d.Grammar, d.Env, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("label", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				eng.ReleaseLabeling(eng.LabelStates(f))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				lab := eng.LabelStates(f)
				if _, err := rd.Cover(f, lab, nil); err != nil {
					b.Fatal(err)
				}
				eng.ReleaseLabeling(lab)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				if _, err := sel.Compile(context.Background(), f); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	})
}

// ---------------------------------------------------------------------------
// E5 — the speedup figure's two bars, directly comparable

func BenchmarkE5SpeedupDPBar(b *testing.B)       { benchLabelDP(b, "x86") }
func BenchmarkE5SpeedupOnDemandBar(b *testing.B) { benchLabelOnDemandWarm(b, "x86") }

// ---------------------------------------------------------------------------
// E6 — dynamic-cost evaluation on the warm fast path

func BenchmarkE6DynamicFastPath(b *testing.B) {
	// sparc has the highest dynamic-rule density per node in the corpus.
	benchLabelOnDemandWarm(b, "sparc")
}

// ---------------------------------------------------------------------------
// E7 — end-to-end selection (label+reduce+emit), dynamic vs stripped

func benchCompile(b *testing.B, gname string, stripped bool) {
	d := md.MustLoad(gname)
	g := d.Grammar
	env := d.Env
	if stripped {
		fixed, err := g.StripDynamic()
		if err != nil {
			b.Fatal(err)
		}
		g, env = fixed, nil
	}
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(g) {
		fs = append(fs, c.Forests()...)
	}
	e, err := core.New(g, env, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rd, err := reduce.New(g, env, nil)
	if err != nil {
		b.Fatal(err)
	}
	prog := emit.Compile(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			em := prog.NewEmitter()
			if _, err := rd.Cover(f, e.Label(f), em.Visit); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE7CompileDynX86(b *testing.B)   { benchCompile(b, "x86", false) }
func BenchmarkE7CompileFixedX86(b *testing.B) { benchCompile(b, "x86", true) }

// ---------------------------------------------------------------------------
// E8 — memory: allocations of building each automaton flavor

func BenchmarkE8MemoryStaticX86(b *testing.B) { benchStaticGen(b, "x86") }

func BenchmarkE8MemoryOnDemandX86(b *testing.B) { benchOnDemandBuild(b, "x86") }

// ---------------------------------------------------------------------------
// Ablation — class-grid direct lookup vs all-hash transition storage

func benchForceHash(b *testing.B, force bool) {
	d := md.MustLoad("x86")
	fs := corpus(b, "x86")
	nodes := corpusNodes(fs)
	e, err := core.New(d.Grammar, d.Env, core.Config{ForceHash: force})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fs {
		e.ReleaseLabeling(e.LabelStates(f))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			e.ReleaseLabeling(e.LabelStates(f))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

func BenchmarkAblationDenseLookup(b *testing.B) { benchForceHash(b, false) }
func BenchmarkAblationAllHash(b *testing.B)     { benchForceHash(b, true) }

// ---------------------------------------------------------------------------
// Parallel labeling — N workers sharing one warm on-demand engine (the
// compilation-server scenario; tracks the scalability of the lock-free
// fast path)

// labelPool labels every forest once across `workers` goroutines pulling
// from a shared atomic index — the worker-pool schedule both parallel
// benchmarks measure.
func labelPool(e *core.Engine, fs []*ir.Forest, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(fs) {
					return
				}
				e.ReleaseLabeling(e.LabelStates(fs[j]))
			}
		}()
	}
	wg.Wait()
}

func benchParallelLabel(b *testing.B, gname string, workers int) {
	d := md.MustLoad(gname)
	fs := corpus(b, gname)
	nodes := corpusNodes(fs)
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fs { // warm up
		e.Label(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labelPool(e, fs, workers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	b.ReportMetric(float64(b.N*nodes)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
}

func BenchmarkParallelLabel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchParallelLabel(b, "x86", w)
		})
	}
}

// benchParallelLabelCold is the cold-start-contention variant: every
// iteration starts a FRESH engine, so all workers hit the construct slow
// path at once. This is the case the per-operator mutex shards exist for:
// misses on different operators construct concurrently instead of
// serializing on one engine-global lock (visible only with GOMAXPROCS > 1;
// the warm benchmark above never takes a lock either way).
func benchParallelLabelCold(b *testing.B, gname string, workers int) {
	d := md.MustLoad(gname)
	fs := corpus(b, gname)
	nodes := corpusNodes(fs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.New(d.Grammar, d.Env, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		labelPool(e, fs, workers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

func BenchmarkParallelLabelColdStart(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchParallelLabelCold(b, "x86", w)
		})
	}
}
