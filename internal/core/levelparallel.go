package core

import (
	"sync"

	"repro/internal/automaton"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// levelsPool recycles level-partition scratch across LabelStatesParallel
// calls; a warm partition reuses its depth/order buffers.
var levelsPool = sync.Pool{New: func() any { return new(reduce.Levels) }}

// LabelStatesParallel is LabelStatesMetered with intra-forest fan-out:
// nodes are partitioned into topological levels and each wide level is
// labeled across up to workers goroutines against the shared warm tables,
// with a barrier between levels so every node's children are labeled
// first. The engine's fast path is lock-free and its slow path is
// per-operator-locked (see the package documentation), so concurrent
// labelNode calls on independent nodes are exactly the multi-client
// serving scenario it already supports — level parallelism just applies
// it inside one unit. workers <= 1 is the sequential path unchanged.
//
// The parallel path trades the warm zero-allocation guarantee for
// latency: partition scratch is pooled but the per-level goroutines
// allocate. Each goroutine's share of a level takes at most one scratch
// from the engine's free list, at its first node that misses or takes the
// hash path, and returns it when the share is done. Labelings come from
// the engine's free list as usual — release with ReleaseLabeling.
func (e *Engine) LabelStatesParallel(f *ir.Forest, workers int, m *metrics.Counters) *automaton.Labeling {
	if workers <= 1 || len(f.Nodes) < reduce.MinParallelSpan {
		return e.LabelStatesMetered(f, m)
	}
	if m == nil {
		m = e.m
	}
	lab := e.labels.Get()
	ids := lab.Reuse(len(f.Nodes))
	lv := levelsPool.Get().(*reduce.Levels)
	lv.Partition(f)
	lv.Run(workers, func(part []int32) {
		var sc *scratch
		for _, idx := range part {
			ids[idx] = e.labelNode(f.Nodes[idx], ids, m, &sc)
		}
		if sc != nil {
			e.scratch.Put(sc)
		}
	})
	levelsPool.Put(lv)
	lab.Bind(e.table)
	return lab
}

// LabelParallel implements reduce.ParallelLabeler.
func (e *Engine) LabelParallel(f *ir.Forest, workers int, m *metrics.Counters) reduce.Labeling {
	return e.LabelStatesParallel(f, workers, m)
}
