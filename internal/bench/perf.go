// The PF experiment: the machine-readable performance trajectory. Every
// PR that touches a hot path regenerates BENCH_PR<N>.json with
// `iselbench -experiment PF -perf-out BENCH_PR<N>.json`, so successors
// can diff warm/cold ns/node, allocations and table bytes against history
// instead of guessing. Numbers are wall-clock and machine-dependent;
// allocation counts and table bytes are deterministic.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
	"repro/internal/telemetry"
)

// allocsPerRun reports the average number of heap allocations per call of
// fn — the testing.AllocsPerRun measurement, reimplemented on
// runtime.ReadMemStats so a non-test package does not link the testing
// framework into the iselbench binary. Pinning to one OS thread's P keeps
// other goroutines' allocations out of the count.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up: pools filled, lazy growth done
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// timedRepeats is how many independent timed windows each warm metric
// takes; the minimum wins. External noise (a scheduler preemption, an
// antagonist on a shared box) only ever adds time, so min-of-k is the
// robust estimator for a trajectory whose committed points are compared
// across runs — a single averaged window made BENCH_PR*.json hostage to
// whatever else the machine was doing during its few milliseconds.
const timedRepeats = 5

// minNsPerNode times passes× fn over repeated windows and returns the
// best window's ns/node. Each window starts from a quiesced collector:
// warm passes allocate nothing, so a forced collection up front keeps
// background marking (which steals the only P on a single-core runner)
// from landing inside the window — without it, whichever metric is
// measured after a garbage-heavy setup phase absorbs that phase's GC
// debt and reads tens of percent slow.
func minNsPerNode(passes, nodes int, fn func()) float64 {
	best := 0.0
	for rep := 0; rep < timedRepeats; rep++ {
		runtime.GC()
		start := time.Now()
		for p := 0; p < passes; p++ {
			fn()
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(passes*nodes)
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// minNsPerNodePaired measures two workloads, over nodesA and nodesB
// nodes per pass, in alternating windows (A,B,A,B,…) and returns each
// side's best window ns/node. Metrics measured minutes apart in a long
// run can land in different noise epochs on a shared single-core host —
// sustained steal biases whichever phase it overlaps — so a ratio between
// them says more about the host than the code; alternating windows expose
// both sides to the same epochs. Each
// window runs one untimed pass first: the partner's window just evicted
// this engine's tables, and charging the refill to the window would bias
// the ratio against whichever engine has the larger working set — a
// contention that steady-state serving (one engine, one process) never
// sees. Finer-grained interleaving is wrong for the same reason: pairing
// at pass granularity makes every pass start cache-cold.
func minNsPerNodePaired(passes, nodesA, nodesB int, fnA, fnB func()) (bestA, bestB float64) {
	// Shorter windows, many more of them, than the unpaired metrics: the
	// gated ratios decide pass/fail on gaps of a few percent, so both
	// minima must converge to their true floors. A window only reads clean
	// if no steal burst lands inside it, and a ~1ms window fits the quiet
	// gaps between bursts far more often than a ~3ms one; taking the min
	// over 15× as many windows does the rest.
	wpasses := passes / 3
	if wpasses < 1 {
		wpasses = 1
	}
	window := func(fn func(), nodes int) float64 {
		fn() // restore the working set the partner's window evicted
		runtime.GC()
		start := time.Now()
		for p := 0; p < wpasses; p++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(wpasses*nodes)
	}
	const pairedRepeats = 15 * timedRepeats
	for rep := 0; rep < pairedRepeats; rep++ {
		if a := window(fnA, nodesA); rep == 0 || a < bestA {
			bestA = a
		}
		if b := window(fnB, nodesB); rep == 0 || b < bestB {
			bestB = b
		}
	}
	return bestA, bestB
}

// PerfRow is one grammar's warm-path measurements over the whole MinC
// corpus.
type PerfRow struct {
	Grammar     string `json:"grammar"`
	CorpusNodes int    `json:"corpus_nodes"`
	// Labeling only (engine fast path), pooled labelings released.
	ColdLabelNsPerNode float64 `json:"cold_label_ns_per_node"`
	WarmLabelNsPerNode float64 `json:"warm_label_ns_per_node"`
	// Label + reduce (no emission): the paper's per-node selection cost.
	WarmSelectNsPerNode float64 `json:"warm_select_ns_per_node"`
	// Allocations per corpus pass on the warm path.
	WarmLabelAllocsPerPass  float64 `json:"warm_label_allocs_per_pass"`
	WarmSelectAllocsPerPass float64 `json:"warm_select_allocs_per_pass"`
	WarmAllocsPerNode       float64 `json:"warm_select_allocs_per_node"`
	States                  int     `json:"states"`
	Transitions             int     `json:"transitions"`
	TableBytes              int     `json:"table_bytes"`

	// The offline comparison point (the paper's other side of the
	// tradeoff): the same corpus selected by the static engine kind — the
	// on-demand engine seeded with the whole closure — with tables
	// compiled ahead of time by internal/gen on the stripped grammar,
	// loaded through the `.isel` wire format. GenMs is the one-time
	// closure+encode+decode cost the on-demand engine never pays;
	// OfflineWarmSelectNsPerNode is pure lookup, no dynamic evaluation,
	// and its allocs must stay at zero.
	OfflineGenMs                   float64 `json:"offline_gen_ms"`
	OfflineStates                  int     `json:"offline_states"`
	OfflineTableBytes              int     `json:"offline_table_bytes"`
	OfflineBlobBytes               int     `json:"offline_blob_bytes"`
	OfflineWarmSelectNsPerNode     float64 `json:"offline_warm_select_ns_per_node"`
	OfflineWarmSelectAllocsPerPass float64 `json:"offline_warm_select_allocs_per_pass"`

	// Full warm Compile (label + reduce + emit) through the public
	// Selector — the end-to-end path a JIT client pays, added to the
	// trajectory when emission went allocation-free. The contract is
	// exactly one *Output allocation per forest and zero per node:
	// WarmCompileExtraAllocsPerPass is the surplus beyond one-per-forest
	// and must stay 0. CorpusForests > 0 marks the columns present
	// (older baselines lack them).
	CorpusForests                 int     `json:"corpus_forests,omitempty"`
	WarmCompileNsPerNode          float64 `json:"warm_compile_ns_per_node,omitempty"`
	WarmCompileAllocsPerPass      float64 `json:"warm_compile_allocs_per_pass,omitempty"`
	WarmCompileExtraAllocsPerPass float64 `json:"warm_compile_extra_allocs_per_pass"`

	// The telemetry-overhead guard (the observability PR's "paid for"
	// contract), two columns, both from windows paired against their
	// bare partner so the gated ratios face the same noise epochs:
	//
	// TelemetryWarmLabelNsPerNode is the warm label pass carrying the
	// label stage's serving instrumentation — one stage-boundary stamp
	// per forest into a pooled trace (spans accumulate batch-style),
	// folded into a histogram set once per pass. The within-report gate
	// is ≤ 2% over WarmLabelNsPerNode plus a half-ns/node noise floor
	// (the pass pays one TSC read per ~57-node forest, and a pure ratio
	// gate would gate the clock, not code — same reasoning as exceeded()'s
	// half-unit rule on zero baselines).
	//
	// TelemetryWarmCompileNsPerNode is the full warm Compile with the
	// serving tier's whole per-request plane attached — live counters, a
	// pooled trace marked at every stage boundary, the finished trace
	// folded per request. TelemetryExtraAllocsPerPass is its surplus
	// beyond one *Output per forest and must stay 0 (traces are pooled,
	// histograms are atomic cells). TelemetryWarmCompileNsPerNode > 0
	// marks the columns present (older baselines lack them).
	TelemetryWarmLabelNsPerNode       float64 `json:"telemetry_warm_label_ns_per_node,omitempty"`
	TelemetryWarmCompileNsPerNode     float64 `json:"telemetry_warm_compile_ns_per_node,omitempty"`
	TelemetryWarmCompileAllocsPerPass float64 `json:"telemetry_warm_compile_allocs_per_pass,omitempty"`
	TelemetryExtraAllocsPerPass       float64 `json:"telemetry_extra_allocs_per_pass"`

	// OfflineTableBytes above is the loaded serving footprint, the seeded
	// engine's MemoryBytes. OfflineCompactTableBytes is the closure's
	// compact footprint (gen.Stats.TableBytes), E1's table-size figure.
	// 0 = column predates the stat.
	OfflineCompactTableBytes int `json:"offline_compact_table_bytes,omitempty"`

	// The hybrid engine: fixed-operator offline tables
	// seeding an on-demand engine, dynamic operators falling through to
	// the hash path. HybridWarmSelect* run the FULL grammar (dynamic rules
	// active) over the same corpus as the warm on-demand figures above.
	// On the stripped grammar the hybrid is the static kind, which the
	// Offline* columns measure. HybridStates > 0 marks the columns present
	// (older baselines lack them).
	HybridGenMs                   float64 `json:"hybrid_gen_ms,omitempty"`
	HybridStates                  int     `json:"hybrid_states,omitempty"`
	HybridTableBytes              int     `json:"hybrid_table_bytes,omitempty"`
	HybridBlobBytes               int     `json:"hybrid_blob_bytes,omitempty"`
	HybridWarmSelectNsPerNode     float64 `json:"hybrid_warm_select_ns_per_node,omitempty"`
	HybridWarmSelectAllocsPerPass float64 `json:"hybrid_warm_select_allocs_per_pass"`
}

// PerfReport is the BENCH_PR<N>.json payload.
type PerfReport struct {
	Schema     int       `json:"schema"`
	GoVersion  string    `json:"go_version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Passes     int       `json:"passes"`
	Rows       []PerfRow `json:"rows"`
	Notes      []string  `json:"notes"`
}

// WriteJSON writes the report to path, pretty-printed for diffing.
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunPerf measures the on-demand engine's warm path per corpus grammar:
// cold and warm labeling ns/node, warm label+reduce ns/node, allocation
// counts per corpus pass, and the automaton's size after the corpus.
func RunPerf(passes int) (*PerfReport, *Table, error) {
	if passes <= 0 {
		passes = 30
	}
	t := &Table{
		ID:    "PF",
		Title: fmt.Sprintf("warm-path performance trajectory (%d timed corpus passes per grammar; off-* = ahead-of-time tables on the stripped grammar)", passes),
		Header: []string{"grammar", "nodes", "cold-label-ns", "warm-label-ns", "warm-select-ns",
			"allocs/pass(label)", "allocs/pass(select)", "allocs/node", "compile-ns", "compile-xallocs",
			"tel-label-ns", "tel-compile-ns", "tel-xallocs",
			"states", "trans", "table-bytes",
			"off-select-ns", "off-allocs", "off-states", "off-bytes", "off-gen-ms",
			"hyb-select-ns", "hyb-allocs", "hyb-states"},
	}
	rep := &PerfReport{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Passes:     passes,
	}
	for _, name := range CorpusGrammars {
		d := md.MustLoad(name)
		var fs []*ir.Forest
		nodes := 0
		for _, u := range loadCorpus(d.Grammar) {
			fs = append(fs, u.forests...)
			nodes += u.nodes
		}
		e, err := core.New(d.Grammar, d.Env, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		rd, err := reduce.New(d.Grammar, d.Env, nil)
		if err != nil {
			return nil, nil, err
		}
		labelPass := func() {
			for _, f := range fs {
				e.ReleaseLabeling(e.LabelStates(f))
			}
		}
		selectPass := func() {
			for _, f := range fs {
				lab := e.LabelStates(f)
				if _, err := rd.Cover(f, lab, nil); err != nil {
					panic(err) // corpus is known-derivable; see the tests
				}
				e.ReleaseLabeling(lab)
			}
		}

		start := time.Now()
		labelPass() // cold: constructs every state and transition
		coldNs := float64(time.Since(start).Nanoseconds()) / float64(nodes)

		warmNs := minNsPerNode(passes, nodes, labelPass)

		selectPass() // warm the reducer pool too
		selNs := minNsPerNode(passes, nodes, selectPass)

		labelAllocs := allocsPerRun(10, labelPass)
		selAllocs := allocsPerRun(10, selectPass)

		// Telemetry-on label: the same pass with the label stage's serving
		// instrumentation — one boundary stamp per forest into a pooled
		// trace whose spans accumulate batch-style, folded into a
		// histogram series once per pass. Paired windows against the bare
		// pass: the ≤2% gate ComparePerf applies is a within-report ratio.
		var tlPool telemetry.TracePool
		tlSet := telemetry.NewCollector().Set(name, string(repro.KindOnDemand))
		telLabelPass := func() {
			tr := tlPool.Get(name, string(repro.KindOnDemand), "perf")
			for _, f := range fs {
				e.ReleaseLabeling(e.LabelStates(f))
				tr.Mark(telemetry.StageLabel)
			}
			tr.Finish()
			tlSet.RecordTrace(tr)
			tlPool.Put(tr)
		}
		telLabelPass() // fill the trace pool
		plainLabelNs, telLabelNs := minNsPerNodePaired(passes, nodes, nodes, labelPass, telLabelPass)
		if plainLabelNs < warmNs {
			warmNs = plainLabelNs
		}

		row := PerfRow{
			Grammar: name, CorpusNodes: nodes,
			ColdLabelNsPerNode: coldNs, WarmLabelNsPerNode: warmNs,
			TelemetryWarmLabelNsPerNode: telLabelNs,
			WarmSelectNsPerNode:         selNs,
			WarmLabelAllocsPerPass:      labelAllocs, WarmSelectAllocsPerPass: selAllocs,
			WarmAllocsPerNode: selAllocs / float64(nodes),
			States:            e.NumStates(), Transitions: e.NumTransitions(),
			TableBytes: e.MemoryBytes(),
		}
		if err := measureCompile(name, fs, nodes, passes, &row); err != nil {
			return nil, nil, err
		}
		if err := measureOffline(d.Grammar, passes, nodes, selectPass, &row); err != nil {
			return nil, nil, err
		}
		if err := measureHybrid(d.Grammar, d.Env, fs, nodes, passes, selectPass, &row); err != nil {
			return nil, nil, err
		}
		rep.Rows = append(rep.Rows, row)
		t.AddRow(name, itoa(nodes), f1(coldNs), f1(warmNs), f1(row.WarmSelectNsPerNode),
			f1(labelAllocs), f1(selAllocs), f2(row.WarmAllocsPerNode),
			f1(row.WarmCompileNsPerNode), f1(row.WarmCompileExtraAllocsPerPass),
			f1(row.TelemetryWarmLabelNsPerNode),
			f1(row.TelemetryWarmCompileNsPerNode), f1(row.TelemetryExtraAllocsPerPass),
			itoa(row.States), itoa(row.Transitions), itoa(row.TableBytes),
			f1(row.OfflineWarmSelectNsPerNode), f1(row.OfflineWarmSelectAllocsPerPass),
			itoa(row.OfflineStates), itoa(row.OfflineTableBytes), f2(row.OfflineGenMs),
			f1(row.HybridWarmSelectNsPerNode), f1(row.HybridWarmSelectAllocsPerPass),
			itoa(row.HybridStates))
	}
	rep.Notes = append(rep.Notes,
		"warm label and select must stay at ~0 allocs/pass: labelings, reducer scratch and dyn buffers are pooled",
		"ns figures are wall-clock and machine-dependent; compare trends, not absolutes, across BENCH_PR*.json",
		fmt.Sprintf("warm ns figures are min-of-%d timed windows: external noise only adds time, so the minimum is the comparable statistic on a shared machine", timedRepeats),
		"offline columns run the static kind (the on-demand engine seeded with the whole closure) on the stripped grammar through the .isel encode/decode round trip: the one-time gen cost buys lookup-only selection with zero construction under traffic",
		"compile-ns/compile-xallocs cover the full warm Compile (label+reduce+emit) through the public Selector: the contract is one *Output per forest and zero allocations per node, so compile-xallocs must stay 0",
		"off-bytes is the loaded serving footprint (the seeded engine's states, class matrix and class grids); offline_compact_table_bytes in the JSON is the closure's compact figure, E1's table-bytes",
		"hyb-select-ns runs the hybrid engine (the on-demand engine seeded with the fixed operators' closure) on the FULL grammar over the same corpus as warm-select-ns; once warm the two are one engine, so expect a match",
		"tel-label-ns is warm-label-ns with the label stage's serving instrumentation (one boundary stamp per forest into a pooled batch trace); the gate is <= 1.02x warm-label-ns + 0.5 ns/node (paired windows; the additive term is a noise floor beside the one TSC read per ~57-node forest)",
		"tel-compile-ns is compile-ns with the full per-request telemetry plane attached (live counters, pooled trace, per-request histogram fold); informational in wall-clock, gated via tel-xallocs = 0 (telemetry must be allocation-free)",
	)
	t.Note("cold includes every state construction of the session; warm is the steady state a JIT/server reaches")
	t.Note("allocs/pass counted over the whole corpus (runtime.MemStats.Mallocs delta); 0 is the contract for label and select — offline included")
	t.Note("off-gen-ms is the ahead-of-time closure+encode+decode cost; the on-demand engine never pays it, the static engine on blob tables pays it exactly once")
	return rep, t, nil
}

// measureCompile fills row's full-warm-Compile columns through the public
// Selector — label + reduce + emit end to end. The warm path allocates
// exactly one *Output per forest: operand text lives in per-emitter
// arenas, registers and bookkeeping are reused across Reset, and repeated
// assembly comes interned. The surplus beyond one-per-forest is the gated
// contract and must stay 0.
func measureCompile(name string, fs []*ir.Forest, nodes, passes int, row *PerfRow) error {
	m, err := repro.LoadMachine(name)
	if err != nil {
		return err
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	compilePass := func() {
		for _, f := range fs {
			if _, err := sel.Compile(ctx, f); err != nil {
				panic(err) // corpus is known-derivable; see the tests
			}
		}
	}
	compilePass() // warm: automaton, emitter pool, interner
	row.CorpusForests = len(fs)
	row.WarmCompileNsPerNode = minNsPerNode(passes, nodes, compilePass)
	row.WarmCompileAllocsPerPass = allocsPerRun(10, compilePass)
	row.WarmCompileExtraAllocsPerPass = row.WarmCompileAllocsPerPass - float64(len(fs))
	if row.WarmCompileExtraAllocsPerPass < 0 {
		row.WarmCompileExtraAllocsPerPass = 0
	}

	// Telemetry-on half: the same pass carrying everything the serving
	// tier attaches per job — live counters, a pooled trace stamped at
	// every stage boundary, the finished trace folded into a histogram
	// series. Paired windows against the plain pass, because the ≤2%
	// overhead gate ComparePerf applies is a within-report ratio.
	var jm repro.Counters
	var pool telemetry.TracePool
	set := telemetry.NewCollector().Set(name, string(repro.KindOnDemand))
	telemetryPass := func() {
		for _, f := range fs {
			tr := pool.Get(name, string(repro.KindOnDemand), "perf")
			if _, err := sel.Compile(ctx, f, repro.WithCounters(&jm), repro.WithTrace(tr)); err != nil {
				panic(err) // corpus is known-derivable; see the tests
			}
			tr.Finish()
			set.RecordTrace(tr)
			pool.Put(tr)
		}
	}
	telemetryPass() // fill the trace pool
	plainNs, telNs := minNsPerNodePaired(passes, nodes, nodes, compilePass, telemetryPass)
	if plainNs < row.WarmCompileNsPerNode {
		row.WarmCompileNsPerNode = plainNs
	}
	row.TelemetryWarmCompileNsPerNode = telNs
	row.TelemetryWarmCompileAllocsPerPass = allocsPerRun(10, telemetryPass)
	row.TelemetryExtraAllocsPerPass = row.TelemetryWarmCompileAllocsPerPass - float64(len(fs))
	if row.TelemetryExtraAllocsPerPass < 0 {
		row.TelemetryExtraAllocsPerPass = 0
	}
	return nil
}

// measureOffline fills row's offline comparison columns: the same corpus
// selected by the static kind — the engine seeded with ahead-of-time
// tables (internal/gen) of the stripped grammar, loaded through the wire
// format just as a served blob would be. Its select is re-timed in
// interleaved paired windows against odPass, the warm on-demand select
// over odNodes, and keeps its best observation: the estimator the hybrid
// column gets too.
func measureOffline(g *grammar.Grammar, passes, odNodes int, odPass func(), row *PerfRow) error {
	fixed, err := g.StripDynamic()
	if err != nil {
		return err
	}
	var fs []*ir.Forest
	nodes := 0
	for _, u := range loadCorpus(fixed) {
		fs = append(fs, u.forests...)
		nodes += u.nodes
	}
	genStart := time.Now()
	a, res, err := seededFromBlob(fixed, nil)
	if err != nil {
		return err
	}
	row.OfflineGenMs = float64(time.Since(genStart).Nanoseconds()) / 1e6
	rd, err := reduce.New(fixed, nil, nil)
	if err != nil {
		return err
	}
	selectPass := func() {
		for _, f := range fs {
			lab := a.LabelStates(f)
			if _, err := rd.Cover(f, lab, nil); err != nil {
				panic(err) // corpus is known-derivable; see the tests
			}
			a.ReleaseLabeling(lab)
		}
	}
	selectPass() // fill the labeling and reducer pools; tables are already complete
	row.OfflineWarmSelectNsPerNode = minNsPerNode(passes, nodes, selectPass)
	if _, offNs := minNsPerNodePaired(passes, odNodes, nodes, odPass, selectPass); offNs < row.OfflineWarmSelectNsPerNode {
		row.OfflineWarmSelectNsPerNode = offNs
	}
	row.OfflineWarmSelectAllocsPerPass = allocsPerRun(10, selectPass)
	row.OfflineStates = a.NumStates()
	row.OfflineTableBytes = a.MemoryBytes()
	row.OfflineCompactTableBytes = res.Stats.TableBytes
	row.OfflineBlobBytes = len(res.Blob)
	return nil
}

// measureHybrid fills row's hybrid columns on the full grammar against
// the on-demand corpus (fs/nodes, beside warm on-demand), with tables
// loaded through the `.isel` wire round trip, like a served blob. The
// comparison with warm on-demand is re-timed here in interleaved paired
// windows against odPass, and the on-demand column keeps its best
// observation — a min estimator only improves with more samples, and
// pairing makes the ratio robust to host-noise epochs.
func measureHybrid(g *grammar.Grammar, env grammar.DynEnv, fs []*ir.Forest, nodes, passes int, odPass func(), row *PerfRow) error {
	genStart := time.Now()
	h, res, err := seededFromBlob(g, env)
	if err != nil {
		return err
	}
	row.HybridGenMs = float64(time.Since(genStart).Nanoseconds()) / 1e6
	rd, err := reduce.New(g, env, nil)
	if err != nil {
		return err
	}
	selectPass := func() {
		for _, f := range fs {
			lab := h.LabelStates(f)
			if _, err := rd.Cover(f, lab, nil); err != nil {
				panic(err) // corpus is known-derivable; see the tests
			}
			h.ReleaseLabeling(lab)
		}
	}
	selectPass() // warm: the dynamic operators construct their transitions
	odNs, hybNs := minNsPerNodePaired(passes, nodes, nodes, odPass, selectPass)
	if odNs < row.WarmSelectNsPerNode {
		row.WarmSelectNsPerNode = odNs
	}
	row.HybridWarmSelectNsPerNode = hybNs
	row.HybridWarmSelectAllocsPerPass = allocsPerRun(10, selectPass)
	row.HybridStates = res.Stats.States
	row.HybridTableBytes = h.MemoryBytes()
	row.HybridBlobBytes = len(res.Blob)
	return nil
}

// seededFromBlob compiles g's ahead-of-time tables and builds the seeded
// on-demand engine from the blob through the decode-and-validate path a
// served blob takes: the hybrid kind's engine, or the static kind's on a
// fixed-cost grammar.
func seededFromBlob(g *grammar.Grammar, env grammar.DynEnv) (*core.Engine, *gen.Result, error) {
	res, err := gen.Compile(g, gen.Config{})
	if err != nil {
		return nil, nil, err
	}
	ts, err := gen.Decode(g, res.Blob)
	if err != nil {
		return nil, nil, err
	}
	h, err := core.NewSeeded(g, env, core.Config{}, ts)
	return h, res, err
}
