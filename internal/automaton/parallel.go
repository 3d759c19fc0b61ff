package automaton

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

var staticLevels = sync.Pool{New: func() any { return new(reduce.Levels) }}

// LabelStatesParallel is LabelStatesMetered with intra-forest fan-out:
// topological levels labeled across up to workers goroutines with a
// barrier between levels (see reduce.Levels). The static automaton's
// tables are immutable after generation, so per-node labeling from many
// goroutines needs no synchronization at all — the only ordering
// requirement is child-before-parent, which the level barrier provides.
// workers <= 1 is the sequential path unchanged.
func (a *Static) LabelStatesParallel(f *ir.Forest, workers int, m *metrics.Counters) *Labeling {
	if workers <= 1 || len(f.Nodes) < reduce.MinParallelSpan {
		return a.LabelStatesMetered(f, m)
	}
	if m == nil {
		m = a.m
	}
	lab := a.labels.Get()
	ids := lab.Reuse(len(f.Nodes))
	lv := staticLevels.Get().(*reduce.Levels)
	lv.Partition(f)
	if a.dir1 != nil {
		stride := len(a.states)
		lv.Run(workers, func(part []int32) {
			for _, idx := range part {
				m.CountNode()
				m.CountProbe(false)
				n := f.Nodes[idx]
				op := n.Op
				switch len(n.Kids) {
				case 0:
					ids[idx] = a.leaf[op]
				case 1:
					ids[idx] = a.dir1[op][ids[n.Kids[0].Index]]
				default:
					ids[idx] = a.dir2[op][int(ids[n.Kids[0].Index])*stride+int(ids[n.Kids[1].Index])]
				}
			}
		})
	} else {
		lv.Run(workers, func(part []int32) {
			for _, idx := range part {
				m.CountNode()
				m.CountProbe(false)
				n := f.Nodes[idx]
				op := n.Op
				switch len(n.Kids) {
				case 0:
					ids[idx] = a.leaf[op]
				case 1:
					rep := a.mu[op][0][ids[n.Kids[0].Index]]
					ids[idx] = a.t1[op][rep]
				default:
					r0 := a.mu[op][0][ids[n.Kids[0].Index]]
					r1 := a.mu[op][1][ids[n.Kids[1].Index]]
					ids[idx] = a.t2[op][r0*a.nreps[op][1]+r1]
				}
			}
		})
	}
	staticLevels.Put(lv)
	lab.BindStates(a.states)
	return lab
}

// LabelParallel implements reduce.ParallelLabeler.
func (a *Static) LabelParallel(f *ir.Forest, workers int, m *metrics.Counters) reduce.Labeling {
	return a.LabelStatesParallel(f, workers, m)
}
