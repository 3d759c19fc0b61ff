package main

import (
	"io"
	"testing"
	"time"
)

// The smoke tests run from the benchmark directory, so the definition is
// one level up.
const testSpecFile = "../" + specFile

func testEnv(t *testing.T, seed uint64, seconds time.Duration, traced bool) *env {
	t.Helper()
	c, err := buildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{c: c, seed: seed, seconds: seconds, tmp: t.TempDir()}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// TestWorkloadsSmoke runs every workload for one second on seed 1: no
// failed or mismatched output, and exactly the end-to-end metrics of
// BENCHMARK.json with their units.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := loadSpec(testSpecFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		rep, err := runWorkload(w, testEnv(t, 1, time.Second, false), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: %d of %d attempts failed", w.name, rep.Failed, rep.Attempted)
		}
		if err := sp.check(rep); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestSequenceHashRepeats checks that a seed always draws the same
// request sequence, and another seed a different one.
func TestSequenceHashRepeats(t *testing.T) {
	e1, e1b, e2 := testEnv(t, 1, time.Second, false), testEnv(t, 1, time.Second, false), testEnv(t, 2, time.Second, false)
	for _, w := range workloads {
		_, h1, err := w.plan(e1)
		if err != nil {
			t.Fatal(err)
		}
		_, h1b, _ := w.plan(e1b)
		_, h2, _ := w.plan(e2)
		if h1 != h1b {
			t.Errorf("%s: seed 1 drew %s, then %s", w.name, h1, h1b)
		}
		if h1 == h2 {
			t.Errorf("%s: seeds 1 and 2 drew the same sequence %s", w.name, h1)
		}
	}
}

// TestTracedRunRepeats runs the traced jit-solo run twice: both pass the
// reconciliation check (except under -race), report every per-layer metric
// of BENCHMARK.json, and count the same automaton construction.
func TestTracedRunRepeats(t *testing.T) {
	sp, err := loadSpec(testSpecFile)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*report
	for i := 0; i < 2; i++ {
		rep, err := runWorkload(workloads[0], testEnv(t, 1, 2*time.Second, true), io.Discard)
		if rep == nil || (err != nil && !raceEnabled) {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d of %d traced attempts failed", rep.Failed, rep.Attempted)
		}
		if err := sp.check(rep); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	for _, k := range []string{"core.states_built", "core.transitions_added", "core.table_misses"} {
		a, b := reps[0].Metrics[k].Value, reps[1].Metrics[k].Value
		if a != b || a == 0 {
			t.Errorf("%s: %g then %g", k, a, b)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestJudge covers each verdict of the comparison rule.
func TestJudge(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 70, 130, 90, 110, 100, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{shift(-20), "improved"},
		{shift(+20), "worse"},
		{shift(+1), "unchanged"},
		{noisy, "unresolved"},
	} {
		_, got := judge(lower, base, c.b, quartiles(base), quartiles(c.b))
		if got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
