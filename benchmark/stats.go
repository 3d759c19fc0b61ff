package main

import (
	"math"
	"math/rand/v2"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"time"
)

// reservoir keeps a uniform random sample of at most cap(buf) latencies
// (Algorithm R), so a timed loop records every observation without
// allocating and percentiles stay exact over the kept sample. Not safe for
// concurrent use: each client goroutine owns one, merged after the run.
type reservoir struct {
	buf  []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(size int, seed uint64) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = v
	}
}

// merge pools reservoirs. The kept samples are concatenated, which stays a
// fair sample when every reservoir saw about as many observations as it
// keeps, or when each kept everything.
func merge(rs ...*reservoir) (vals []float64, seen int64) {
	for _, r := range rs {
		vals = append(vals, r.buf...)
		seen += r.seen
	}
	return vals, seen
}

// quantile returns the q-quantile of vals by linear interpolation between
// the closest ranks; vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	slices.Sort(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// latencySamples is how many latencies a loop keeps, split among its
// client goroutines.
const latencySamples = 1 << 16

// runtimeSample reads the three runtime counters the benchmark reports,
// without stopping the world.
type runtimeSample struct {
	allocBytes, gcCycles, heapLive uint64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// window measures one timed window: wall time, allocation and GC deltas,
// and the peak of the live heap (as the last collection measured it),
// sampled every 250 ms without stopping the world.
type window struct {
	start   time.Time
	begin   runtimeSample
	peak    uint64
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	elapsed time.Duration
	end     runtimeSample
}

func startWindow() *window {
	w := &window{stop: make(chan struct{})}
	w.begin = readRuntime()
	w.peak = w.begin.heapLive
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.observe(readRuntime().heapLive)
			}
		}
	}()
	w.start = time.Now()
	return w
}

func (w *window) observe(heap uint64) {
	w.mu.Lock()
	if heap > w.peak {
		w.peak = heap
	}
	w.mu.Unlock()
}

// finish ends the window and stops its sampler.
func (w *window) finish() {
	w.elapsed = time.Since(w.start)
	w.end = readRuntime()
	close(w.stop)
	w.wg.Wait()
	w.observe(w.end.heapLive)
}

func (w *window) allocBytes() float64 { return float64(w.end.allocBytes - w.begin.allocBytes) }
func (w *window) gcCycles() float64   { return float64(w.end.gcCycles - w.begin.gcCycles) }
func (w *window) heapPeakMB() float64 { return float64(w.peak) / 1e6 }
