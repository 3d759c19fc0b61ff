package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName names the layer call a span wraps. The benchmark records spans
// around its own calls into each layer's public functions; nothing inside
// the program is instrumented.
type spanName uint8

const (
	spRequest     spanName = iota // one workload request, end to end
	spLabel                       // Selector.Label on a warm selector
	spColdLabel                   // Selector.Label on a fresh selector
	spCover                       // Reducer.Cover with a nil visitor
	spEmitVisit                   // oracle derivation replayed into a reused Emitter
	spEmitAsm                     // Emitter.Asm
	spFreshVisit                  // the same replay into emit.New (a pool miss)
	spLoadMachine                 // repro.LoadMachine
	spNewSelector                 // Machine.NewSelector plus reducer and emitter
	spHandler                     // the traced /compile handler, server side
	spDecode                      // encoding/json decode of CompileRequest
	spParse                       // frontend.Parse
	spLower                       // frontend.Lower
	spParseTrees                  // Machine.ParseTree (ir.ParseTrees)
	spSubmit                      // Server.SubmitBatch
	spWait                        // Future.Wait for every job of the batch
	spEncode                      // encoding/json encode of CompileResponse
	spAcquire                     // a batch of Registry.Acquire + Lease.Release
	spSwap                        // one registry swap (direct or POST /swap)
	spRouted                      // one request through the router
	spDirect                      // the same request sent to its ring owner
	spLag                         // scheduled send time until the actual send
	spBootFirst                   // NewReplica that pays AOT generation
	spBootPeer                    // NewReplica that fetches the blob from a peer
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "core.label", "core.cold_label", "reduce.cover", "emit.visit",
	"emit.asm", "emit.fresh_visit", "repro.load_machine", "repro.new_selector",
	"server.handler", "server.decode", "frontend.parse", "frontend.lower",
	"ir.parse_trees", "server.submit", "server.wait", "server.encode",
	"registry.acquire", "registry.swap", "cluster.routed", "cluster.direct",
	"loadgen.lag", "cluster.boot_first", "cluster.boot_peer",
}

// Span phases: spans of the workload's own traced requests, and spans of
// the layer sweep that fills in layers the workload does not reach.
const (
	phaseWorkload = 0
	phaseSweep    = 1
)

type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the parent span, -1 for a root
	req        int32 // request id shared by a request's spans
	nodes      int32 // work attributed: IR nodes, or operations
	name       spanName
	mach       int8 // machine index, -1 when not machine-specific
	phase      uint8
}

// tracer keeps spans in one preallocated slice; begin claims a slot with
// one atomic add, so client goroutines and server handlers record
// concurrently without locks and nothing is allocated or written out until
// the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	reqs  atomic.Int32
	// limit is the slot count the current phase may fill; phase tags new
	// spans. Both change only while no traced goroutine runs.
	limit int64
	phase uint8
	// mu orders span writes made on server goroutines before the
	// analysis reads them (see publish).
	mu sync.Mutex
}

// traceSlots bounds the spans of one traced workload; sweepReserve of them
// are kept for the layer sweep, which records some 35,000.
const (
	traceSlots   = 1 << 18
	sweepReserve = 1 << 16
)

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, traceSlots), limit: traceSlots - sweepReserve}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// A nil tracer records nothing: begin returns -1, and end, record and
// setStart ignore it, so untraced paths can call them unconditionally.

func (t *tracer) newReq() int32 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// full reports whether the current phase has used its share of slots.
func (t *tracer) full() bool { return t.n.Load() >= t.limit }

func (t *tracer) used() int64 { return min(t.n.Load(), int64(len(t.spans))) }

func (t *tracer) begin(name spanName, parent, req int32, mach int) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: t.now(), parent: parent, req: req, name: name, mach: int8(mach), phase: t.phase}
	return int32(i)
}

func (t *tracer) end(i int32, nodes int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	s.nodes = int32(nodes)
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name spanName, parent, req int32, mach int, start, end time.Time, nodes int) {
	i := t.begin(name, parent, req, mach)
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.start, s.end, s.nodes = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch)), int32(nodes)
}

// setStart moves span i's start back to at, for a request whose latency
// starts before its span could (an open-loop request that was due earlier).
func (t *tracer) setStart(i int32, at time.Time) {
	if i >= 0 {
		t.spans[i].start = int64(at.Sub(t.epoch))
	}
}

// publish makes the calling goroutine's finished spans visible to the
// analysis; server-side handlers call it, client goroutines are joined.
func (t *tracer) publish() {
	t.mu.Lock()
	t.mu.Unlock()
}

func (t *tracer) enterSweep() {
	t.n.Store(t.used())
	t.limit = int64(len(t.spans))
	t.phase = phaseSweep
}

func (s *span) dur() float64 { return float64(s.end - s.start) }

// analysis indexes the finished spans: durations, self times (duration
// minus the time child spans cover; children never overlap), and the
// spans of each name in the phase a metric should come from.
type analysis struct {
	spans []span
	self  []float64
}

func analyze(t *tracer) *analysis {
	t.publish()
	spans := t.spans[:t.used()]
	a := &analysis{spans: spans, self: make([]float64, len(spans))}
	for i := range spans {
		if spans[i].end > 0 {
			a.self[i] = spans[i].dur()
		}
	}
	for i := range spans {
		if p := spans[i].parent; p >= 0 && spans[i].end > 0 {
			a.self[p] -= spans[i].dur()
		}
	}
	return a
}

// pick returns the indexes of finished spans with this name (and machine,
// unless mach < 0), from the workload's own requests when it made any and
// from the sweep otherwise.
func (a *analysis) pick(name spanName, mach int) []int {
	var byPhase [2][]int
	for i := range a.spans {
		s := &a.spans[i]
		if s.name == name && s.end > 0 && (mach < 0 || int(s.mach) == mach) {
			byPhase[s.phase] = append(byPhase[s.phase], i)
		}
	}
	if len(byPhase[phaseWorkload]) > 0 {
		return byPhase[phaseWorkload]
	}
	return byPhase[phaseSweep]
}

// perNode is total duration over total attributed work, in ns.
func (a *analysis) perNode(name spanName, mach int) float64 {
	var ns, work float64
	for _, i := range a.pick(name, mach) {
		ns += a.spans[i].dur()
		work += float64(a.spans[i].nodes)
	}
	if work == 0 {
		return 0
	}
	return ns / work
}

// durations returns the picked spans' durations in ns.
func (a *analysis) durations(name spanName) []float64 {
	var out []float64
	for _, i := range a.pick(name, -1) {
		out = append(out, a.spans[i].dur())
	}
	return out
}

// handlerFigures derives the per-request server figures from each traced
// handler span: transport is the client request's self time (its latency
// minus the handler it waited for), turnaround is submit plus wait.
func (a *analysis) handlerFigures() (transport, turnaround []float64) {
	handlers := a.pick(spHandler, -1)
	isHandler := make(map[int32]bool, len(handlers))
	for _, h := range handlers {
		isHandler[int32(h)] = true
		if p := a.spans[h].parent; p >= 0 {
			transport = append(transport, a.self[p])
		}
	}
	turn := map[int32]float64{}
	for i := range a.spans {
		s := &a.spans[i]
		if (s.name == spSubmit || s.name == spWait) && s.end > 0 && isHandler[s.parent] {
			turn[s.parent] += s.dur()
		}
	}
	for _, v := range turn {
		turnaround = append(turnaround, v)
	}
	return transport, turnaround
}

// printSelfTimes writes one row per (phase, span name): count, mean
// duration and mean self time.
func (a *analysis) printSelfTimes(w io.Writer) {
	type agg struct {
		n         int
		dur, self float64
	}
	var rows [2][numSpanNames]agg
	for i := range a.spans {
		s := &a.spans[i]
		if s.end == 0 {
			continue
		}
		r := &rows[s.phase][s.name]
		r.n++
		r.dur += s.dur()
		r.self += a.self[i]
	}
	fmt.Fprintf(w, "%-8s %-20s %9s %12s %12s\n", "phase", "layer", "spans", "mean_us", "self_us")
	for ph, name := range []string{"workload", "sweep"} {
		for sn := range rows[ph] {
			r := rows[ph][sn]
			if r.n == 0 {
				continue
			}
			fmt.Fprintf(w, "%-8s %-20s %9d %12.3f %12.3f\n", name, spanNames[sn], r.n, r.dur/float64(r.n)/1e3, r.self/float64(r.n)/1e3)
		}
	}
}

// spanWriter writes the finished spans of one or more traced workloads
// as one JSON array.
type spanWriter struct {
	f     *os.File
	w     *bufio.Writer
	first bool
}

func createSpans(path string) (*spanWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw := &spanWriter{f: f, w: bufio.NewWriter(f), first: true}
	fmt.Fprint(sw.w, "[")
	return sw, nil
}

func (sw *spanWriter) write(workload string, t *tracer) {
	spans := t.spans[:t.used()]
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		if !sw.first {
			fmt.Fprint(sw.w, ",")
		}
		sw.first = false
		mach := ""
		if s.mach >= 0 {
			mach = machineNames[s.mach]
		}
		fmt.Fprintf(sw.w, "\n{\"workload\":%q,\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"request\":%d,\"machine\":%q,\"work\":%d,\"phase\":%d}",
			workload, i, spanNames[s.name], s.start, s.end, s.parent, s.req, mach, s.nodes, s.phase)
	}
}

func (sw *spanWriter) close() error {
	fmt.Fprintln(sw.w, "\n]")
	if err := sw.w.Flush(); err != nil {
		sw.f.Close()
		return err
	}
	return sw.f.Close()
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
