package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// Hybrid is the fifth engine kind: an on-demand automaton whose state
// table is pre-seeded with the fixed-operator-subset closure of the
// grammar (automaton.HybridOverlay) and whose fixed-operator transitions
// are answered from the overlay's expanded state-id-indexed arrays with
// plain loads — offline speed — while dynamic-rule operators fall through
// to the engine's open-addressing hash path unchanged. Because the
// overlay's states were interned into the engine's table at construction
// (id-preserving: interning into an empty table assigns ids in call
// order), both halves share one id space and a labeling that mixes
// overlay answers with on-demand answers is a single consistent
// automaton.Labeling.
//
// Correctness of the split rests on two properties. First, the overlay is
// the fixed-subset closure of the FULL grammar (not of a stripped copy),
// so its states are genuine states of the engine's automaton — the same
// (delta, rule) vectors on-demand construction would intern. Second, that
// closure is a fixpoint over the fixed operators: a fixed transition whose
// children both lie in the seeded range always lands back in the seeded
// range, so overlay cells are never "missing". The only fixed-operator
// lookups the overlay cannot answer are those with an out-of-range child
// — a state born on-demand under a dynamic subtree — and those are served
// by the engine's own tables (dense, or hashed past its dense bound),
// warming under traffic like any on-demand transition.
//
// Concurrency is inherited: the overlay is immutable after construction
// (plain loads are safe), and everything that mutates goes through the
// wrapped Engine's documented lock-free/per-op-mutex discipline. Hybrid
// implements reduce.Labeler, reduce.MeteredLabeler, reduce.ParallelLabeler
// and reduce.LabelingRecycler.
//
// Config.MaxStates caveat: overlay seeding is not subject to the state
// budget (the tables were validated offline), but on-demand growth past
// the seeds is. A MaxStates smaller than the overlay's state count
// therefore leaves no headroom at all — the first dynamic-path
// construction fails with ErrStateBudget.
type Hybrid struct {
	eng *Engine

	// Immutable overlay serving state (plain, non-atomic loads).
	n    int32     // number of seeded offline states
	leaf []int32   // [op] -> state id (fixed leaf ops; -1 otherwise)
	dir1 [][]int32 // [op][kid] -> state id; nil row = not expanded
	dir2 [][]int32 // [op][l*n+r] -> state id; nil row = not expanded
	dyn  []bool    // [op] -> operator has dynamic rules (falls through)

	force     bool // ForceHash: bypass the overlay entirely
	ovBytes   int
	ovEntries int
}

// NewHybrid builds a hybrid engine for g from a validated overlay (see
// automaton.NewHybridOverlay). env binds the grammar's dynamic-cost
// function names. The engine adopts the overlay's state table, so an
// overlay builds exactly one engine.
func NewHybrid(g *grammar.Grammar, env grammar.DynEnv, cfg Config, ov *automaton.HybridOverlay) (*Hybrid, error) {
	if ov.Grammar() != g {
		return nil, fmt.Errorf("core: hybrid overlay built for grammar %s, engine for %s", ov.Grammar().Name, g.Name)
	}
	eng, err := New(g, env, cfg)
	if err != nil {
		return nil, err
	}
	// Adopt the offline states with their blob ids. They were interned
	// past any budget (see the type docs for the MaxStates caveat); the
	// budget bounds on-demand growth from here.
	if ov.Table == nil {
		return nil, fmt.Errorf("core: hybrid overlay already built an engine")
	}
	eng.table, ov.Table = ov.Table, nil
	eng.table.SetBudget(cfg.MaxStates)
	numOps := g.NumOps()
	h := &Hybrid{
		eng:       eng,
		n:         int32(ov.NumStates()),
		leaf:      ov.Leaf,
		dir1:      ov.Dir1,
		dir2:      ov.Dir2,
		dyn:       make([]bool, numOps),
		force:     cfg.ForceHash,
		ovBytes:   ov.MemoryBytes(),
		ovEntries: ov.Entries,
	}
	// Seed-only mode (expansion past automaton.ExpandMaxBytes): no direct
	// arrays. Normalize to per-op nil rows so labelNode can index by
	// operator unconditionally.
	if h.dir1 == nil {
		h.dir1 = make([][]int32, numOps)
	}
	if h.dir2 == nil {
		h.dir2 = make([][]int32, numOps)
	}
	for op := 0; op < numOps; op++ {
		h.dyn[op] = g.HasDynRules(grammar.OpID(op))
	}
	return h, nil
}

// Grammar returns the engine's grammar.
func (h *Hybrid) Grammar() *grammar.Grammar { return h.eng.Grammar() }

// Engine exposes the wrapped on-demand engine (for inspection and tests).
func (h *Hybrid) Engine() *Engine { return h.eng }

// OfflineStates returns the number of states the overlay seeded — the
// offline share of NumStates.
func (h *Hybrid) OfflineStates() int { return int(h.n) }

// SetMetrics swaps the counter sink (not safe concurrently with labeling).
func (h *Hybrid) SetMetrics(m *metrics.Counters) { h.eng.SetMetrics(m) }

// NumStates returns seeded plus on-demand-constructed states.
func (h *Hybrid) NumStates() int { return h.eng.NumStates() }

// NumTransitions returns the overlay's compressed transition entries plus
// the transitions the on-demand half has memoized.
func (h *Hybrid) NumTransitions() int { return h.ovEntries + h.eng.NumTransitions() }

// MemoryBytes is the overlay's expanded arrays plus the wrapped engine's
// table footprint.
func (h *Hybrid) MemoryBytes() int { return h.ovBytes + h.eng.MemoryBytes() }

// labelNode labels one node: overlay direct load for fixed operators,
// engine fallthrough for dynamic operators (and for fixed-operator
// lookups the overlay cannot answer — out-of-range children or seed-only
// mode — which warm the engine's own dense tables).
func (h *Hybrid) labelNode(n *ir.Node, ids []int32, m *metrics.Counters) int32 {
	op := n.Op
	if h.force || h.dyn[op] {
		// The engine counts the node and routes force/dynamic itself.
		return h.eng.labelNode(n, ids, m)
	}
	m.CountNode()
	switch len(n.Kids) {
	case 0:
		// Every fixed leaf operator has a seeded state (overlay validation
		// guarantees it): the answer is one plain load.
		m.CountProbe(false)
		return h.leaf[op]
	case 1:
		kid := ids[n.Kids[0].Index]
		if kid < h.n {
			if row := h.dir1[op]; row != nil {
				m.CountProbe(false)
				return row[kid]
			}
		}
		return h.fallUn(op, n, ids, m)
	default:
		l := ids[n.Kids[0].Index]
		r := ids[n.Kids[1].Index]
		if l < h.n && r < h.n {
			if grid := h.dir2[op]; grid != nil {
				m.CountProbe(false)
				return grid[l*h.n+r]
			}
		}
		return h.fallBin(op, n, ids, m)
	}
}

// fallUn answers a fixed unary lookup the overlay cannot (out-of-range
// child or seed-only mode) from the engine's own dense table, warming it
// on a miss. Kept out of the labeling loop so the loop body stays small
// enough to inline.
func (h *Hybrid) fallUn(op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters) int32 {
	e := h.eng
	kid := ids[n.Kids[0].Index]
	if rp := e.un[op].Load(); rp != nil {
		if row := *rp; int(kid) < len(row) {
			if id := atomic.LoadInt32(&row[kid]); id >= 0 {
				m.CountProbe(false)
				return id
			}
		}
	}
	return e.missUn(op, n, ids, m)
}

// fallBin is fallUn for binary operators.
func (h *Hybrid) fallBin(op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters) int32 {
	e := h.eng
	l, r := ids[n.Kids[0].Index], ids[n.Kids[1].Index]
	if t := e.bin[op].Load(); t != nil && l < t.rows && r < t.stride {
		if id := atomic.LoadInt32(&t.cells[l*t.stride+r]); id >= 0 {
			m.CountProbe(false)
			return id
		}
	}
	return e.missBin(op, n, ids, m)
}

// LabelStates assigns a state to every node of f. Labelings are pooled —
// return them with ReleaseLabeling.
func (h *Hybrid) LabelStates(f *ir.Forest) *automaton.Labeling {
	return h.LabelStatesMetered(f, nil)
}

// LabelStatesMetered is LabelStates with per-call counter attribution
// (see Engine.LabelStatesMetered).
//
// The loop hand-inlines labelNode's overlay fast path: on the warm fixed
// majority the whole label is a bounds check and one plain array load, and
// folding it into the loop body spares a (non-inlinable) call per node —
// the margin by which warm hybrid selection undercuts the warm on-demand
// engine, whose every node pays the labelNode call. Dynamic operators,
// ForceHash, and overlay misses still take the out-of-line paths.
func (h *Hybrid) LabelStatesMetered(f *ir.Forest, m *metrics.Counters) *automaton.Labeling {
	if m == nil {
		m = h.eng.m
	}
	lab := h.eng.labels.Get().(*automaton.Labeling)
	ids := lab.Reuse(len(f.Nodes))
	if h.force {
		for i, n := range f.Nodes {
			ids[i] = h.eng.labelNode(n, ids, m)
		}
		lab.Bind(h.eng.table)
		return lab
	}
	n32, leaf, dir1, dir2, dyn := h.n, h.leaf, h.dir1, h.dir2, h.dyn
	for i, n := range f.Nodes {
		op := n.Op
		if dyn[op] {
			// Straight to the engine's dynamic hash path: labelNode would
			// only re-derive HasDynRules and the force flag.
			m.CountNode()
			ids[i] = h.eng.labelDyn(op, n, ids, m)
			continue
		}
		m.CountNode()
		switch len(n.Kids) {
		case 0:
			m.CountProbe(false)
			ids[i] = leaf[op]
		case 1:
			kid := ids[n.Kids[0].Index]
			if kid < n32 {
				if row := dir1[op]; row != nil {
					m.CountProbe(false)
					ids[i] = row[kid]
					continue
				}
			}
			ids[i] = h.fallUn(op, n, ids, m)
		default:
			l := ids[n.Kids[0].Index]
			r := ids[n.Kids[1].Index]
			if l < n32 && r < n32 {
				if grid := dir2[op]; grid != nil {
					m.CountProbe(false)
					ids[i] = grid[l*n32+r]
					continue
				}
			}
			ids[i] = h.fallBin(op, n, ids, m)
		}
	}
	lab.Bind(h.eng.table)
	return lab
}

// LabelStatesParallel is LabelStatesMetered with intra-forest level
// fan-out, exactly the wrapped engine's scheme: the overlay fast path is
// plain loads on immutable data and the fallthrough inherits the engine's
// concurrency discipline, so parallel labelNode calls are safe across the
// fixed/dynamic boundary.
func (h *Hybrid) LabelStatesParallel(f *ir.Forest, workers int, m *metrics.Counters) *automaton.Labeling {
	if workers <= 1 || len(f.Nodes) < reduce.MinParallelSpan {
		return h.LabelStatesMetered(f, m)
	}
	if m == nil {
		m = h.eng.m
	}
	lab := h.eng.labels.Get().(*automaton.Labeling)
	ids := lab.Reuse(len(f.Nodes))
	lv := levelsPool.Get().(*reduce.Levels)
	lv.Partition(f)
	lv.Run(workers, func(idx int32) {
		ids[idx] = h.labelNode(f.Nodes[idx], ids, m)
	})
	levelsPool.Put(lv)
	lab.Bind(h.eng.table)
	return lab
}

// Label implements reduce.Labeler.
func (h *Hybrid) Label(f *ir.Forest) reduce.Labeling { return h.LabelStates(f) }

// LabelMetered implements reduce.MeteredLabeler.
func (h *Hybrid) LabelMetered(f *ir.Forest, m *metrics.Counters) reduce.Labeling {
	return h.LabelStatesMetered(f, m)
}

// LabelParallel implements reduce.ParallelLabeler.
func (h *Hybrid) LabelParallel(f *ir.Forest, workers int, m *metrics.Counters) reduce.Labeling {
	return h.LabelStatesParallel(f, workers, m)
}

// ReleaseLabeling implements reduce.LabelingRecycler.
func (h *Hybrid) ReleaseLabeling(lab reduce.Labeling) { h.eng.ReleaseLabeling(lab) }
