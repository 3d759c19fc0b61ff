package reduce_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
)

// TestLevelsPartitionInvariants: every node appears in exactly one level,
// and every node's children sit at strictly smaller levels — the property
// that makes intra-level concurrency sound.
func TestLevelsPartitionInvariants(t *testing.T) {
	d := md.MustLoad("demo")
	var lv reduce.Levels
	for seed := int64(0); seed < 6; seed++ {
		f := ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: seed, Trees: 300, MaxDepth: 9, Share: seed%2 == 0, MaxLeafVal: 3,
		})
		lv.Partition(f)
		levelOf := make([]int, len(f.Nodes))
		seen := make([]bool, len(f.Nodes))
		for l := 0; l < lv.NumLevels(); l++ {
			for _, idx := range lv.Level(l) {
				if seen[idx] {
					t.Fatalf("seed %d: node %d appears in two levels", seed, idx)
				}
				seen[idx] = true
				levelOf[idx] = l
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: node %d missing from the partition", seed, i)
			}
		}
		for _, n := range f.Nodes {
			for _, k := range n.Kids {
				if levelOf[k.Index] >= levelOf[n.Index] {
					t.Fatalf("seed %d: kid %d at level %d, parent %d at level %d",
						seed, k.Index, levelOf[k.Index], n.Index, levelOf[n.Index])
				}
			}
		}
	}
}

// TestLevelsRunOrdering: under worker fan-out, Run must never hand a node
// to label before all of its children have completed — checked by having
// label assert every child's done flag. Run under -race too.
func TestLevelsRunOrdering(t *testing.T) {
	d := md.MustLoad("demo")
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{
		Seed: 42, Trees: 800, MaxDepth: 9, Share: true, MaxLeafVal: 3,
	})
	var lv reduce.Levels
	lv.Partition(f)
	for _, workers := range []int{1, 2, 4, 8} {
		done := make([]atomic.Bool, len(f.Nodes))
		var total atomic.Int64
		lv.Run(workers, func(part []int32) {
			for _, idx := range part {
				n := f.Nodes[idx]
				for _, k := range n.Kids {
					if !done[k.Index].Load() {
						t.Errorf("workers=%d: node %d ran before its kid %d", workers, idx, k.Index)
					}
				}
				done[idx].Store(true)
				total.Add(1)
			}
		})
		if int(total.Load()) != len(f.Nodes) {
			t.Errorf("workers=%d: label ran %d times, want %d", workers, total.Load(), len(f.Nodes))
		}
	}
}

// TestLevelsRunPanicPropagates: a panic inside label must surface on the
// calling goroutine (the sequential path's contract), not kill the
// process from a worker.
func TestLevelsRunPanicPropagates(t *testing.T) {
	d := md.MustLoad("demo")
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{
		Seed: 7, Trees: 500, MaxDepth: 6, MaxLeafVal: 3,
	})
	var lv reduce.Levels
	lv.Partition(f)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the label panic", r)
		}
	}()
	lv.Run(4, func(part []int32) {
		for _, idx := range part {
			if int(idx) == len(f.Nodes)/2 {
				panic("boom")
			}
		}
	})
	t.Fatal("Run returned instead of panicking")
}
