package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/automaton"
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// TestParallelLabelColdMatchesSequential: K goroutines label disjoint
// forests on one shared cold engine — the worst case, where every worker
// races through the construct slow path. Each forest's derivation cost
// must match what a sequential engine computes, and the automata must
// converge to the same state count (states are content-addressed, so the
// set of states a workload needs is independent of construction order).
// Run under -race to validate the synchronization, not just the results.
func TestParallelLabelColdMatchesSequential(t *testing.T) {
	d := md.MustLoad("demo")
	const workers = 8
	forests := make([]*ir.Forest, workers)
	for i := range forests {
		forests[i] = ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: int64(100 + i), Trees: 200, MaxDepth: 8, Share: i%2 == 0, MaxLeafVal: 3,
		})
	}

	// Sequential reference: fresh engine, same forests in order.
	seq, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := make([]grammarCost, workers)
	for i, f := range forests {
		wantCost[i] = forestCosts(t, rd, f, seq.LabelStates(f))
	}

	m := &metrics.Counters{}
	par, err := New(d.Grammar, d.Env, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	gotCost := make([]grammarCost, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotCost[i] = forestCosts(t, rd, forests[i], par.LabelStates(forests[i]))
		}(i)
	}
	wg.Wait()

	for i := range forests {
		if gotCost[i] != wantCost[i] {
			t.Errorf("forest %d: parallel cost %v != sequential cost %v", i, gotCost[i], wantCost[i])
		}
	}
	if par.NumStates() != seq.NumStates() {
		t.Errorf("state counts diverged: parallel %d, sequential %d", par.NumStates(), seq.NumStates())
	}
	if n := int64(totalNodes(forests)); m.NodesLabeled != n {
		t.Errorf("nodes labeled = %d, want %d", m.NodesLabeled, n)
	}
}

// grammarCost is a printable cost summary of one forest's reduction.
type grammarCost struct {
	cost int64
	err  string
}

func forestCosts(t *testing.T, rd *reduce.Reducer, f *ir.Forest, lab reduce.Labeling) grammarCost {
	t.Helper()
	c, err := rd.Cover(f, lab, nil)
	if err != nil {
		return grammarCost{err: err.Error()}
	}
	return grammarCost{cost: int64(c)}
}

func totalNodes(fs []*ir.Forest) int {
	n := 0
	for _, f := range fs {
		n += f.NumNodes()
	}
	return n
}

// TestParallelLabelWarmAddsNothing: on a warm engine — one warmed by a
// sequential pass, or one seeded with a fixed-cost grammar's whole
// closure, the static kind — parallel relabeling must be pure fast path:
// no misses, no new states or transitions, and labels identical to the
// sequential ones and to the DP oracle.
func TestParallelLabelWarmAddsNothing(t *testing.T) {
	d := md.MustLoad("demo")
	fixed, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	closure, _, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *grammar.Grammar
		env  grammar.DynEnv
		seed *automaton.TableSet // nil: start empty
	}{
		{"warmed", d.Grammar, d.Env, nil},
		{"seeded", fixed, nil, closure},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := &metrics.Counters{}
			var e *Engine
			var err error
			if c.seed == nil {
				e, err = New(c.g, c.env, Config{Metrics: m})
			} else {
				e, err = NewSeeded(c.g, c.env, Config{Metrics: m}, c.seed)
			}
			if err != nil {
				t.Fatal(err)
			}
			l, err := dp.New(c.g, c.env, nil)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 6
			forests := make([]*ir.Forest, workers)
			want := make([]*automaton.Labeling, workers)
			for i := range forests {
				forests[i] = ir.RandomForest(c.g, ir.RandomConfig{
					Seed: int64(500 + i), Trees: 150, MaxDepth: 7, Share: true, MaxLeafVal: 3,
				})
				want[i] = e.LabelStates(forests[i]) // warm up
			}
			states, trans := e.NumStates(), e.NumTransitions()
			m.Reset()

			var wg sync.WaitGroup
			errc := make(chan error, workers)
			got := make([]*automaton.Labeling, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					f := forests[i]
					got[i] = e.LabelStates(f)
					want := l.LabelResult(f)
					for _, n := range f.Nodes {
						for nt := range want.Rules[n.Index] {
							if want.Rules[n.Index][nt] != got[i].StateAt(n).Rule[nt] {
								errc <- fmt.Errorf("forest %d node %d nt %d: parallel label disagrees with DP", i, n.Index, nt)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			for i, f := range forests {
				for _, n := range f.Nodes {
					if want[i].StateAt(n) != got[i].StateAt(n) {
						t.Fatalf("forest %d node %d: parallel label differs from sequential", i, n.Index)
					}
				}
			}
			if m.TableMisses != 0 || e.NumStates() != states || e.NumTransitions() != trans {
				t.Errorf("warm parallel relabeling: %d misses, %d->%d states, %d->%d transitions; want none",
					m.TableMisses, states, e.NumStates(), trans, e.NumTransitions())
			}
		})
	}
}

// TestSaveDuringLabeling: Save holds the construct lock, so a snapshot
// taken while other goroutines are still constructing states must always
// be internally consistent — every transition it persists references a
// persisted state — and therefore loadable.
func TestSaveDuringLabeling(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seed := int64(0); seed < 6; seed++ {
				e.LabelStates(ir.RandomForest(d.Grammar, ir.RandomConfig{
					Seed: seed*int64(workers) + int64(i), Trees: 60, MaxDepth: 8, Share: true, MaxLeafVal: 3,
				}))
			}
		}(i)
	}
	var bufs []string
	for i := 0; i < 10; i++ { // interleave snapshots with the labeling above
		var b strings.Builder
		if err := e.Save(&b); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b.String())
	}
	wg.Wait()
	for i, buf := range bufs {
		fresh, err := New(d.Grammar, d.Env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Load(strings.NewReader(buf)); err != nil {
			t.Errorf("snapshot %d not loadable: %v", i, err)
		}
	}
}

// TestParallelForceHash drives the all-hash ablation layout from many
// goroutines: the open-addressing path must be as safe as the dense one.
func TestParallelForceHash(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{ForceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(d.Grammar, d.Env, Config{ForceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	forests := make([]*ir.Forest, workers)
	for i := range forests {
		forests[i] = ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: int64(900 + i), Trees: 100, MaxDepth: 7, Share: i%2 == 1, MaxLeafVal: 3,
		})
		seq.LabelStates(forests[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.LabelStates(forests[i])
		}(i)
	}
	wg.Wait()
	if e.NumStates() != seq.NumStates() {
		t.Errorf("ForceHash parallel states %d != sequential %d", e.NumStates(), seq.NumStates())
	}
}
