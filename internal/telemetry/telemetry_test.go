package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- histogram buckets ---

// TestBucketBoundaries pins the bucket map on the values the ISSUE
// names: 0, 1ns, exact powers of two, and the >max clamp.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{-5, 0}, // clock skew safety: negatives clamp to the zero bucket
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1024, 11},                       // 2^10 opens bucket 11
		{1023, 10},                       // 2^10-1 closes bucket 10
		{int64(1) << 36, NumBuckets - 1}, // over the top: clamp
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every non-overflow bucket's upper bound must map back into it.
	for i := 1; i < NumBuckets-1; i++ {
		up := BucketUpper(i)
		if got := bucketIndex(up); got != i {
			t.Errorf("BucketUpper(%d) = %d maps to bucket %d", i, up, got)
		}
		if got := bucketIndex(up + 1); got != i+1 {
			t.Errorf("BucketUpper(%d)+1 maps to bucket %d, want %d", i, got, i+1)
		}
	}
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d", BucketUpper(0))
	}
	if BucketUpper(NumBuckets-1) != math.MaxInt64 {
		t.Errorf("overflow BucketUpper = %d", BucketUpper(NumBuckets-1))
	}
}

func TestHistogramRecordSnapshot(t *testing.T) {
	var h Histogram
	vals := []int64{0, 1, 1, 100, 1000, 1 << 20, math.MaxInt64}
	for _, v := range vals {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if s.MaxNs != math.MaxInt64 {
		t.Fatalf("max = %d", s.MaxNs)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 2 {
		t.Fatalf("low buckets: %v", s.Buckets[:3])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
}

// TestMergeAssociativity: (a+b)+c == a+(b+c) == c+(a+b), on random
// snapshots — the property that makes fleet aggregation order-free.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() *Histogram {
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Record(rng.Int63n(1 << 30))
		}
		return &h
	}
	a, b, c := mk().Snapshot(), mk().Snapshot(), mk().Snapshot()

	left := a // (a+b)+c
	left.Merge(b)
	left.Merge(c)

	bc := b // a+(b+c)
	bc.Merge(c)
	right := a
	right.Merge(bc)

	if left != right {
		t.Fatalf("merge is not associative:\n  (a+b)+c = %+v\n  a+(b+c) = %+v", left, right)
	}

	comm := c // commutativity too: c+(a+b)
	ab := a
	ab.Merge(b)
	comm.Merge(ab)
	if comm != left {
		t.Fatalf("merge is not commutative")
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	// 90 fast (≈1µs) + 10 slow (≈1ms) observations: p50 must sit in the
	// fast band, p99 in the slow band, and everything clamps to max.
	for i := 0; i < 90; i++ {
		h.Record(1000)
	}
	for i := 0; i < 10; i++ {
		h.Record(1_000_000)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 >= 10_000 {
		t.Errorf("p50 = %dns, want in the fast band", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 500_000 {
		t.Errorf("p99 = %dns, want in the slow band", p99)
	}
	if max := s.Quantile(1.0); max != 1_000_000 {
		t.Errorf("p100 = %dns, want the true max", max)
	}
	sum := s.Summary()
	if sum.Count != 100 || sum.MaxNs != 1_000_000 || sum.P99Ns < sum.P50Ns {
		t.Errorf("summary: %+v", sum)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("lost records: %d, want %d", s.Count, workers*per)
	}
}

// --- collector ---

func TestCollectorSeriesAndMerge(t *testing.T) {
	c := NewCollector()
	set := c.Set("x86", "ondemand")
	if c.Set("x86", "ondemand") != set {
		t.Fatal("Set must return the same series for the same key")
	}
	var tr Trace
	tr.Begin()
	// Spans live in raw stamp units inside a trace; construct them from
	// ns and allow the round trip a little float rounding below.
	for i := range tr.spans {
		tr.spans[i] = stampFromNs(int64(10 * (i + 1)))
	}
	tr.total = stampFromNs(150)
	set.RecordTrace(&tr)
	c.Set("jit64", "static").Record(StageLabel, 99)

	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].Machine != "jit64" || snap[1].Machine != "x86" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[1].Stages[StageQueue].Count != 1 || snap[1].Total.MaxNs < 145 || snap[1].Total.MaxNs > 150 {
		t.Fatalf("x86 series: %+v", snap[1])
	}

	// Fleet merge: two replicas' snapshots fold by machine × kind.
	other := NewCollector()
	other.Set("x86", "ondemand").Record(StageQueue, 20)
	other.Set("mips", "dp").Record(StageLease, 1)
	merged := MergeSeries(c.Snapshot(), other.Snapshot())
	if len(merged) != 3 {
		t.Fatalf("merged series count = %d, want 3", len(merged))
	}
	for _, ss := range merged {
		if ss.Machine == "x86" && ss.Stages[StageQueue].Count != 2 {
			t.Fatalf("x86 queue count after merge = %d, want 2", ss.Stages[StageQueue].Count)
		}
	}
	sums := merged[0].StageSummaries()
	if _, ok := sums["total"]; !ok || len(sums) != NumStages+1 {
		t.Fatalf("stage summaries: %v", sums)
	}
}

// --- slowlog ---

// TestSlowlogEvictionOrder pins the ring's eviction rule: the log keeps
// the N slowest, evicting its fastest retained entry when a slower
// request arrives, and never evicting for a faster one.
func TestSlowlogEvictionOrder(t *testing.T) {
	l := NewSlowlog(3)
	for i, total := range []int64{50, 10, 30} {
		l.Record(Entry{ID: uint64(i + 1), TotalNs: total})
	}
	// Full with {50,10,30}. A 5ns request must bounce off the floor.
	l.Record(Entry{ID: 99, TotalNs: 5})
	if got := l.Entries(); len(got) != 3 || got[0].TotalNs != 50 || got[2].TotalNs != 10 {
		t.Fatalf("fast request displaced the log: %+v", got)
	}
	// A 40ns request evicts the 10ns one — the fastest — and nothing else.
	l.Record(Entry{ID: 4, TotalNs: 40})
	got := l.Entries()
	want := []int64{50, 40, 30}
	for i, e := range got {
		if e.TotalNs != want[i] {
			t.Fatalf("after eviction: %+v, want totals %v", got, want)
		}
	}
	// Ties do not evict (<=): a second 30ns entry bounces.
	l.Record(Entry{ID: 5, TotalNs: 30})
	if got := l.Entries(); got[2].ID != 3 {
		t.Fatalf("tie evicted the incumbent: %+v", got)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestSlowlogConcurrent(t *testing.T) {
	l := NewSlowlog(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Record(Entry{ID: uint64(w*1000 + i), TotalNs: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	got := l.Entries()
	if len(got) != 8 {
		t.Fatalf("len = %d", len(got))
	}
	for _, e := range got { // the 8 slowest of 0..999 × 4 are all 998+
		if e.TotalNs < 998 {
			t.Fatalf("kept a fast entry: %+v", got)
		}
	}
}

// --- trace ---

func TestTraceSpansAndPool(t *testing.T) {
	var p TracePool
	tr := p.Get("x86", "ondemand", "alice")
	if tr.ID == 0 {
		t.Fatal("pool must issue nonzero ids")
	}
	tr.Mark(StageLease)
	time.Sleep(2 * time.Millisecond)
	tr.Mark(StageLabel)
	tr.Finish()
	if tr.Span(StageLabel) < int64(time.Millisecond) {
		t.Fatalf("label span = %d, want >= 1ms", tr.Span(StageLabel))
	}
	if tr.Total() < tr.Span(StageLabel) {
		t.Fatalf("total %d < label span %d", tr.Total(), tr.Span(StageLabel))
	}
	sum := tr.Summary()
	for _, want := range []string{"machine=x86", "kind=ondemand", "label="} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	e := EntryOf(tr)
	if e.ID != tr.ID || e.SpanNs != tr.Spans() {
		t.Fatalf("EntryOf mismatch: %+v", e)
	}
	id := tr.ID
	p.Put(tr)
	tr2 := p.GetWithID(7, "mips", "dp", "bob")
	if tr2.ID != 7 || tr2.Span(StageLabel) != 0 || tr2.Err != "" {
		t.Fatalf("recycled trace not reset: %+v (old id %d)", tr2, id)
	}

	// Nil traces are inert everywhere.
	var nt *Trace
	nt.Begin()
	nt.Mark(StageReduce)
	nt.Skip()
	nt.Finish()
	if nt.Total() != 0 || nt.Span(StageReduce) != 0 || nt.Summary() != "" {
		t.Fatal("nil trace must be a no-op")
	}
}

// --- prom ---

func TestPromWriteParseRoundTrip(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 1000)
	}
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Counter("isel_jobs_total", "jobs", []Label{{"machine", "x86"}}, 42)
	w.Counter("isel_jobs_total", "jobs", []Label{{"machine", `we"ird\m`}}, 1)
	w.Gauge("isel_resident_bytes", "resident table bytes", nil, 1.5e6)
	w.Histogram("isel_stage_duration_seconds", "per-stage latency",
		[]Label{{"machine", "x86"}, {"kind", "ondemand"}, {"stage", "label"}}, h.Snapshot())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	n, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("writer output does not parse: %v\n%s", err, text)
	}
	if n < 6 {
		t.Fatalf("parsed %d samples, want >= 6\n%s", n, text)
	}
	for _, want := range []string{
		"# TYPE isel_jobs_total counter",
		"# TYPE isel_stage_duration_seconds histogram",
		`le="+Inf"`,
		"isel_stage_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// The cumulative +Inf bucket must equal _count's value.
	if !strings.Contains(text, `le="+Inf"} 100`) {
		t.Fatalf("+Inf bucket must carry the full count:\n%s", text)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                            // no samples
		"1metric 5",                   // bad name
		"ok{le=\"unterminated} 5",     // unterminated label
		"ok{x=bare} 5",                // unquoted value
		"ok 5 6 7",                    // trailing garbage
		"ok notanumber",               // bad value
		"# TYPE ok notatype\nok 5",    // unknown type
		"ok{br%ken=\"v\"} 5",          // bad label name
		"ok{x=\"v\"} 5 notatimestamp", // bad timestamp
	}
	for _, src := range bad {
		if _, err := ParseProm(strings.NewReader(src)); err == nil {
			t.Errorf("ParseProm accepted %q", src)
		}
	}
	good := "# random comment\n\nok{x=\"v\",y=\"w\"} 5 1700000000\nplain 3.5\ninf +Inf"
	if n, err := ParseProm(strings.NewReader(good)); err != nil || n != 3 {
		t.Errorf("ParseProm(good) = %d, %v", n, err)
	}
}

// --- logger ---

func TestLoggerLevelsAndAdapter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debugf("x", "dropped")
	l.Infof("registry", "swapped %s to v%d", "x86", 2)
	l.Warnf("cluster", "peer down")
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatal("debug line leaked through info level")
	}
	for _, want := range []string{"INFO", "[registry] swapped x86 to v2", "WARN", "[cluster] peer down"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
	// Printf adapter: the shape SetLogger/Logf consume.
	buf.Reset()
	sink := l.Printf(LevelInfo, "swap")
	sink("machine %s", "jit64")
	if !strings.Contains(buf.String(), "[swap] machine jit64") {
		t.Fatalf("adapter output: %q", buf.String())
	}
	l.SetLevel(LevelError)
	buf.Reset()
	sink("now dropped")
	l.Warnf("x", "also dropped")
	if buf.Len() != 0 {
		t.Fatalf("level raise did not silence: %q", buf.String())
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelWarn) {
		t.Fatal("Enabled disagrees with level")
	}

	var nl *Logger
	nl.Infof("x", "nil logger is silent")
	nl.SetLevel(LevelDebug)
	nl.Printf(LevelInfo, "x")("still silent")
	if nl.Enabled(LevelError) {
		t.Fatal("nil logger must be disabled")
	}

	if _, err := ParseLevel("nope"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
	for s, want := range map[string]Level{"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn, "error": LevelError, "": LevelInfo} {
		if got, err := ParseLevel(s); err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	bi := Build()
	if bi.GoVersion == "" || bi.OS == "" || bi.Arch == "" {
		t.Fatalf("build info incomplete: %+v", bi)
	}
	if s := fmt.Sprintf("%+v", bi); s == "" {
		t.Fatal("unreachable")
	}
}
