package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro"
)

// env is what every workload plan draws from: the prepared corpus, the
// seed, the run length, the tracer of a traced run (nil otherwise) and a
// scratch directory for blob stores.
type env struct {
	c       *corpus
	seed    uint64
	seconds time.Duration
	tr      *tracer
	tmp     string
}

// instance is one set-up workload: run drives its load for d, traced when
// tr is non-nil; close stops everything it started and waits for it.
type instance interface {
	run(d time.Duration, tr *tracer) *loopResult
	close()
}

type workload struct {
	name string
	// plan draws the request sequence from the seed and returns a setup
	// that builds one fresh, warmed instance over it, and the sequence's
	// hash.
	plan func(e *env) (func() (instance, error), string, error)
}

var workloads = []workload{
	{"jit-solo", planJIT(false)},
	{"jit-mixed", planJIT(true)},
	{"cold-start", planCold},
	{"serve-http", planServe},
	{"fleet-swap", planFleet},
}

// loopResult is what one timed loop observed.
type loopResult struct {
	attempted, failed int64
	nodes, forests    int64
	lat, lag          []*reservoir
	win               *window
	// machNs and machNodes total, per machine, the Compile time and work
	// a traced JIT loop measured beside its traced requests.
	machNs, machNodes [5]float64
	// values holds per-layer figures a loop reads rather than times.
	values map[string]float64
}

func (r *loopResult) count(nodes, forests int, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	r.nodes += int64(nodes)
	r.forests += int64(forests)
}

func (r *loopResult) add(o *loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.nodes += o.nodes
	r.forests += o.forests
	r.lat = append(r.lat, o.lat...)
	r.lag = append(r.lag, o.lag...)
	for k, v := range o.values {
		r.setValue(k, v)
	}
}

func (r *loopResult) setValue(k string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[k] = v
}

// metricValue is one reported metric; n is the sample count behind a
// percentile.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// report is one workload's result.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	SeqHash   string                 `json:"seq_hash"`
	Metrics   map[string]metricValue `json:"metrics"`
	// notes are printed diagnostics that are not metrics.
	notes []string
}

func (r *report) set(name string, v float64, unit string, n int64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance serves the timed load.
const setupRepeats = 7

// settle is the untimed load between the pre-window collection and the
// timed window.
const settle = 250 * time.Millisecond

// traceShare is the part of a traced run spent on each of the untraced
// baseline and the traced workload; the layer sweep follows.
const traceShare = 0.4

func runWorkload(w workload, e *env, log io.Writer) (*report, error) {
	setup, hash, err := w.plan(e)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // each setup starts from a collected heap
		t0 := time.Now()
		if inst, err = setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep := &report{Workload: w.name, Seed: e.seed, Trace: e.tr != nil, SeqHash: hash, Metrics: map[string]metricValue{}}
	// Start the timed load from a collected heap, so garbage from the
	// earlier setups neither pads nor paces it, then run the load briefly
	// untimed so the collection's emptied pools refill first.
	runtime.GC()
	inst.run(settle, nil)
	if e.tr == nil {
		res := inst.run(e.seconds, nil)
		inst.close()
		rep.Attempted, rep.Failed = res.attempted, res.failed
		endToEnd(rep, res, median(setups))
		return rep, nil
	}
	share := time.Duration(float64(e.seconds) * traceShare)
	base := inst.run(share, nil)
	traced := inst.run(share, e.tr)
	inst.close()
	e.tr.enterSweep()
	sweepRes, err := sweep(e)
	if err != nil {
		return nil, fmt.Errorf("layer sweep: %w", err)
	}
	rep.Attempted = base.attempted + traced.attempted + sweepRes.attempted
	rep.Failed = base.failed + traced.failed + sweepRes.failed
	a := analyze(e.tr)
	a.printSelfTimes(log)
	if err := perLayer(rep, a, base, traced, sweepRes); err != nil {
		return rep, err
	}
	return rep, nil
}

// endToEnd fills the metrics a user of the system sees, from an untraced
// loop.
func endToEnd(rep *report, res *loopResult, setupS float64) {
	lat, seen := merge(res.lat...)
	rep.set("throughput_nodes_per_s", float64(res.nodes)/res.win.elapsed.Seconds(), "nodes/s", 0)
	rep.set("latency_p50_us", quantile(lat, 0.5), "us", seen)
	rep.set("heap_peak_mb", res.win.heapPeakMB(), "MB", 0)
	rep.set("setup_s", setupS, "s", setupRepeats)
	rep.note("latency p90 %.6g us, p99 %.6g us (n=%d)", quantile(lat, 0.9), quantile(lat, 0.99), seen)
	rep.note("alloc %.4g B/node, gc cycles %.0f over %d forests in %.2fs", res.win.allocBytes()/float64(res.nodes), res.win.gcCycles(), res.forests, res.win.elapsed.Seconds())
	if len(res.lag) > 0 {
		lag, n := merge(res.lag...)
		rep.note("generator lag p99 %.4f ms (n=%d)", quantile(lag, 0.99), n)
	}
}

// reconcileTolerance bounds how far the traced label + cover + emit times
// of a machine may sum from its untraced Compile time on jit-solo.
const reconcileTolerance = 0.15

// perLayer fills every per-layer metric of a traced run.
func perLayer(rep *report, a *analysis, base, traced, sweepRes *loopResult) error {
	for m, name := range machineNames {
		rep.set("core.label_ns_per_node."+name, a.perNode(spLabel, m), "ns/node", 0)
		rep.set("core.cold_label_ns_per_node."+name, a.perNode(spColdLabel, m), "ns/node", 0)
		rep.set("reduce.cover_ns_per_node."+name, a.perNode(spCover, m), "ns/node", 0)
		rep.set("emit.visit_ns_per_node."+name, a.perNode(spEmitVisit, m), "ns/node", 0)
		rep.set("emit.fresh_visit_ns_per_node."+name, a.perNode(spFreshVisit, m), "ns/node", 0)
	}
	rep.set("emit.asm_ns_per_forest", a.perNode(spEmitAsm, -1), "ns/forest", 0)
	rep.set("frontend.parse_ns_per_node", a.perNode(spParse, -1), "ns/node", 0)
	rep.set("frontend.lower_ns_per_node", a.perNode(spLower, -1), "ns/node", 0)
	rep.set("ir.parse_trees_ns_per_node", a.perNode(spParseTrees, -1), "ns/node", 0)
	for _, x := range []struct {
		metric string
		span   spanName
	}{{"server.decode_us", spDecode}, {"server.encode_us", spEncode}, {"server.submit_us", spSubmit}} {
		d := a.durations(x.span)
		rep.set(x.metric, median(d)/1e3, "us", int64(len(d)))
	}
	transport, turnaround := a.handlerFigures()
	rep.set("server.turnaround_us", median(turnaround)/1e3, "us", int64(len(turnaround)))
	rep.set("server.transport_us", median(transport)/1e3, "us", int64(len(transport)))
	rep.set("registry.acquire_ns", a.perNode(spAcquire, -1), "ns", 0)
	swaps := a.durations(spSwap)
	rep.set("registry.swap_ms_p50", median(swaps)/1e6, "ms", int64(len(swaps)))
	rep.set("registry.swap_ms_max", quantile(swaps, 1)/1e6, "ms", int64(len(swaps)))
	routed, direct := a.durations(spRouted), a.durations(spDirect)
	rep.set("cluster.routed_us_p50", median(routed)/1e3, "us", int64(len(routed)))
	rep.set("cluster.direct_us_p50", median(direct)/1e3, "us", int64(len(direct)))
	first, ok := traced.values["cluster.first_try_ratio"]
	if !ok {
		first = sweepRes.values["cluster.first_try_ratio"]
	}
	rep.set("cluster.first_try_ratio", first, "ratio", 0)
	bf, bp := a.durations(spBootFirst), a.durations(spBootPeer)
	rep.set("cluster.boot_first_ms", median(bf)/1e6, "ms", int64(len(bf)))
	rep.set("cluster.boot_peer_ms", median(bp)/1e6, "ms", int64(len(bp)))
	for _, k := range []string{"core.table_misses", "core.states_built", "core.transitions_added"} {
		rep.set(k, sweepRes.values[k], "count", 0)
	}
	rep.set("core.hit_ratio", sweepRes.values["core.hit_ratio"], "ratio", 0)
	rep.set("runtime.alloc_bytes_per_node", base.win.allocBytes()/float64(base.nodes), "B/node", 0)
	rep.set("runtime.gc_per_kforest", base.win.gcCycles()*1000/float64(base.forests), "gc/kforest", 0)
	lags := a.durations(spLag)
	rep.set("loadgen.lag_p99_ms", quantile(lags, 0.99)/1e6, "ms", int64(len(lags)))

	var reqs []float64
	for _, i := range a.pick(spRequest, -1) {
		if a.spans[i].phase == phaseWorkload {
			reqs = append(reqs, a.spans[i].dur()/1e3)
		}
	}
	baseLat, _ := merge(base.lat...)
	rep.set("trace.overhead_ratio", median(reqs)/median(baseLat), "ratio", int64(len(reqs)))
	return reconcile(rep, a, traced)
}

// reconcile compares, per machine, the traced label + cover + emit time
// with the time Compile took on the same forests, interleaved with them.
// On jit-solo a gap beyond reconcileTolerance fails the run: a layer is
// missing or counted twice. Workloads that time no Compile beside their
// traced requests skip it.
func reconcile(rep *report, a *analysis, traced *loopResult) error {
	var bad []string
	for m, name := range machineNames {
		if traced.machNodes[m] == 0 {
			continue
		}
		var ns, nodes float64
		for i := range a.spans {
			s := &a.spans[i]
			if s.phase != phaseWorkload || int(s.mach) != m || s.end == 0 {
				continue
			}
			switch s.name {
			case spLabel:
				nodes += float64(s.nodes)
				fallthrough
			case spCover, spEmitVisit, spEmitAsm:
				ns += s.dur()
			}
		}
		if nodes == 0 {
			continue
		}
		layers, compile := ns/nodes, traced.machNs[m]/traced.machNodes[m]
		ratio := layers / compile
		rep.note("reconcile %-6s label+cover+emit %.1f ns/node, Compile %.1f ns/node, ratio %.3f", name, layers, compile, ratio)
		if math.Abs(ratio-1) > reconcileTolerance {
			bad = append(bad, fmt.Sprintf("%s (%.3f)", name, ratio))
		}
	}
	if rep.Workload == "jit-solo" && len(bad) > 0 {
		return fmt.Errorf("reconciliation failed on %v: traced layers do not add up to Compile within %.0f%%", bad, reconcileTolerance*100)
	}
	return nil
}

// sweep drives every layer a little after the workload's traced requests,
// so each per-layer metric exists for every workload; a metric takes the
// sweep's spans only where the workload's own requests never reached that
// layer. It also reads the engine counters of one cold session.
func sweep(e *env) (*loopResult, error) {
	res := &loopResult{}
	tr := e.tr

	// Warm library layers: ten traced passes over each machine's corpus,
	// then two passes replaying into fresh emitters.
	setup, _, err := planJIT(false)(e)
	if err != nil {
		return nil, err
	}
	inst, err := setup()
	if err != nil {
		return nil, err
	}
	j := inst.(*jitInst)
	for mi, mc := range e.c.machines {
		for pass := 0; pass < 10; pass++ {
			for fi := range mc.forests {
				fc := &mc.forests[fi]
				res.count(fc.nodes, 1, j.libs[mi].compileTraced(tr, tr.newReq(), fc))
			}
		}
	}
	for mi, mc := range e.c.machines {
		for pass := 0; pass < 2; pass++ {
			for fi := range mc.forests {
				j.libs[mi].freshTraced(tr, &mc.forests[fi])
			}
		}
	}

	// Cold sessions, and the engine counters of one of them.
	setup, _, err = planCold(e)
	if err != nil {
		return nil, err
	}
	inst, err = setup()
	if err != nil {
		return nil, err
	}
	ci := inst.(*coldInst)
	for i := 0; i < 3; i++ {
		ok, nodes := ci.session(tr, ci.perms[i], nil)
		res.count(nodes, len(ci.perms[i]), ok)
	}
	var cnt repro.Counters
	ok, nodes := ci.session(nil, ci.perms[0], &cnt)
	res.count(nodes, len(ci.perms[0]), ok)
	res.setValue("core.table_misses", float64(cnt.TableMisses))
	res.setValue("core.states_built", float64(cnt.StatesBuilt))
	res.setValue("core.transitions_added", float64(cnt.TransitionsAdded))
	res.setValue("core.hit_ratio", 1-float64(cnt.TableMisses)/float64(cnt.TableProbes))

	// The HTTP layers through the traced handler, then the registry.
	setup, _, err = planServe(e)
	if err != nil {
		return nil, err
	}
	if inst, err = setup(); err != nil {
		return nil, err
	}
	si := inst.(*serveInst)
	res.add(si.run(300*time.Millisecond, tr))
	sweepRegistry(si, tr, rand.New(rand.NewPCG(e.seed, 6)), res)
	si.close()

	// The fleet: boot spans, routed/direct pairs under open-loop load.
	setup, _, err = planFleet(e)
	if err != nil {
		return nil, err
	}
	if inst, err = setup(); err != nil {
		return nil, err
	}
	res.add(inst.run(time.Second, tr))
	inst.close()
	return res, nil
}

// sweepRegistry times Acquire+Release pairs in batches, then swaps every
// machine twice, all on the serving registry.
func sweepRegistry(si *serveInst, tr *tracer, rng *rand.Rand, res *loopResult) {
	const batch = 1000
	for b := 0; b < 20; b++ {
		m := rng.IntN(len(machineNames))
		s := tr.begin(spAcquire, -1, tr.newReq(), m)
		for i := 0; i < batch; i++ {
			l, err := si.reg.Acquire(machineNames[m])
			if err != nil {
				fmt.Fprintln(os.Stderr, "acquire:", err)
				res.count(0, 0, false)
				break
			}
			l.Release()
		}
		tr.end(s, batch)
	}
	for k := 0; k < 2; k++ {
		for m, name := range machineNames {
			s := tr.begin(spSwap, -1, tr.newReq(), m)
			err := si.reg.Swap(name)
			tr.end(s, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "swap:", err)
			}
			res.count(0, 0, err == nil)
		}
	}
}
