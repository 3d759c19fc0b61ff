// Package reduce implements the reducer pass shared by all labelers: given
// a labeled forest, it walks the optimal derivation from the start
// nonterminal at each root, firing each rule's action bottom-up.
//
// The reducer is deliberately engine-independent — it reads rules through
// the small Labeling interface — which is also how the test suite verifies
// that the dynamic-programming labeler, the offline automaton and the
// on-demand automaton select identical derivations.
//
// DAG inputs are handled per Ertl (POPL '99): each (node, nonterminal)
// combination is reduced at most once; derivations from different parents
// that meet at the same combination share it.
//
// The walk is iterative — an explicit enter/exit work stack instead of
// recursion, so arbitrarily deep trees cannot overflow the goroutine
// stack — and its per-call state (the stack plus a bitset indexed by
// node×nonterminal that replaces the old map[int64]bool) is recycled
// through the reducer's free list, so a warm Cover performs no allocation.
package reduce

import (
	"context"
	"fmt"

	"repro/internal/freelist"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// CancelCheckInterval is the cooperative-cancellation granularity of the
// reducer: Cover polls ctx.Done() once per this many (node, nonterminal)
// visits, so a cancelled cover stops within a bounded amount of work while
// the warm uncancellable path (a background context, whose Done channel is
// nil) pays nothing. The cancellation tests assert the bound.
const CancelCheckInterval = 256

// Labeling is what a labeler must provide: the optimal first rule for
// deriving node n from nonterminal nt, or -1 if no derivation exists.
type Labeling interface {
	RuleAt(n *ir.Node, nt grammar.NT) int32
}

// Labeler is a labeling engine: the common face of the two engines
// behind the paper's three-way comparison — dp.Labeler (dynamic
// programming at selection time) and core.Engine (the paper's on-demand
// automaton, which also serves the burg-style static kind and the hybrid
// kind when seeded with an ahead-of-time closure, generated in-process
// or loaded from a blob). A new engine implements this interface and
// gets a case in the API layer's NewSelector; nothing else in the
// pipeline needs to know about it.
//
// Each engine labels a forest in one sequential pass over its nodes, in
// topological order. LabelMetered is that pass with per-caller work
// accounting: the compilation server attributes one shared warm engine's
// work to individual clients, whose counters then merge back into the
// session totals via metrics.Counters.Add.
//
// The stats methods describe the engine's automaton, when it has one:
// states materialized, transition entries tabulated or memoized, and the
// estimated table footprint. Engines without tables (dp) report zeros.
//
// Concurrency: every built-in Labeler is safe for concurrent Label calls
// on distinct forests — dp.Labeler keeps all working state per call, and
// core.Engine synchronizes its construct slow path internally (see
// package core).
type Labeler interface {
	LabelingRecycler
	// Label assigns a labeling to every node of f, counting events into
	// the engine's configured sink.
	Label(f *ir.Forest) Labeling
	// LabelMetered is Label counting this one call's events into m
	// instead (nil falls back to the engine's sink).
	LabelMetered(f *ir.Forest, m *metrics.Counters) Labeling
	// NumStates reports automaton states (seeded plus materialized so
	// far, 0 for dp).
	NumStates() int
	// NumTransitions reports tabulated/memoized transition entries (0
	// for dp).
	NumTransitions() int
	// MemoryBytes estimates the engine's table footprint (0 for dp).
	MemoryBytes() int
}

// LabelingRecycler is the part of Labeler behind the allocation-free warm
// path: engines hand labelings out of an internal free list, and
// ReleaseLabeling returns one so the next Label call can reuse its
// buffers.
//
// Ownership contract: a labeling obtained from Label/LabelMetered belongs
// to the caller. Calling ReleaseLabeling transfers it back — the caller
// must not touch it (or anything read out of it that aliases its buffers)
// afterwards. Releasing is optional; labelings that are kept are simply
// garbage collected. Selector.Compile releases internally, which is what
// makes a warm compile allocation-free per node.
type LabelingRecycler interface {
	ReleaseLabeling(lab Labeling)
}

// Visitor receives each applied rule in bottom-up (post-order) position —
// the point where code generation actions run. nt is the nonterminal the
// rule was applied for at n.
type Visitor func(n *ir.Node, nt grammar.NT, r *grammar.Rule)

// Reducer walks derivations. One Reducer may cover from many goroutines
// concurrently: each call takes its own scratch from the reducer's free
// list, so none is shared.
type Reducer struct {
	g       *grammar.Grammar
	dyn     []grammar.DynFunc
	m       *metrics.Counters
	scratch freelist.List[coverScratch]
}

// New creates a reducer. env is needed only to account the true cost of
// applied dynamic rules; nil is fine for fixed-cost grammars. m may be nil.
func New(g *grammar.Grammar, env grammar.DynEnv, m *metrics.Counters) (*Reducer, error) {
	dyn, err := env.Bind(g)
	if err != nil {
		return nil, err
	}
	return &Reducer{g: g, dyn: dyn, m: m}, nil
}

// coverFrame is one entry of the explicit reduction stack. ri < 0 marks an
// enter frame (the (n, nt) combination still needs its rule resolved and
// its premises pushed); ri >= 0 marks an exit frame (all premises are
// reduced — apply rule ri: account its cost and fire the visitor).
type coverFrame struct {
	n  *ir.Node
	nt grammar.NT
	ri int32
}

// coverScratch is the recycled per-Cover state: the work stack and the
// visited bitset, indexed by node×nonterminal.
type coverScratch struct {
	stack []coverFrame
	seen  []uint64
}

// getScratch returns a scratch whose bitset covers node indices below
// bound, cleared and ready to use.
func (rd *Reducer) getScratch(bound int) *coverScratch {
	sc := rd.scratch.Get()
	words := (bound*rd.g.NumNonterms() + 63) / 64
	if cap(sc.seen) < words {
		sc.seen = make([]uint64, words)
	} else {
		sc.seen = sc.seen[:words]
		clear(sc.seen)
	}
	return sc
}

// Cover reduces every root of f from the grammar's start nonterminal and
// returns the total cost of the selected derivation (summing each applied
// rule's cost exactly once, with dynamic costs evaluated at the node).
// visit may be nil. Cover fails if some root has no derivation.
func (rd *Reducer) Cover(f *ir.Forest, lab Labeling, visit Visitor) (grammar.Cost, error) {
	return rd.CoverContext(context.Background(), f, lab, visit, nil)
}

// CoverMetered is Cover with per-call counter attribution: reduction
// visits are counted into m instead of the reducer's configured sink (nil
// falls back to it) — the reducer half of the per-client accounting the
// compilation server does via Labeler.LabelMetered.
func (rd *Reducer) CoverMetered(f *ir.Forest, lab Labeling, visit Visitor, m *metrics.Counters) (grammar.Cost, error) {
	return rd.CoverContext(context.Background(), f, lab, visit, m)
}

// CoverContext is the full cover entry point: per-call counter attribution
// plus cooperative cancellation. The walk polls ctx.Done() once per
// CancelCheckInterval (node, nonterminal) visits and aborts with ctx.Err()
// — the checkpoint that makes a served compile of a pathological forest
// stop within a bounded number of nodes after its deadline or its client's
// disconnect. A background context costs nothing on the warm path (its
// Done channel is nil, so the poll is skipped entirely).
func (rd *Reducer) CoverContext(ctx context.Context, f *ir.Forest, lab Labeling, visit Visitor, m *metrics.Counters) (grammar.Cost, error) {
	if m == nil {
		m = rd.m
	}
	sc := rd.getScratch(len(f.Nodes))
	defer rd.scratch.Put(sc)
	var total grammar.Cost
	// The poll counter spans roots: a forest of many tiny trees must hit
	// the checkpoint as reliably as one deep tree, or the bound fails for
	// exactly the many-rooted units servers see.
	visits := 0
	for _, root := range f.Roots {
		// The bitset is shared across roots: derivations from different
		// roots that meet at one (node, nonterminal) share it too.
		c, err := rd.reduce(ctx, root, rd.g.Start, lab, visit, sc, m, &visits)
		if err != nil {
			return 0, err
		}
		total = total.Add(c)
	}
	return total, nil
}

// CoverTree reduces a single node from an arbitrary goal nonterminal.
func (rd *Reducer) CoverTree(root *ir.Node, goal grammar.NT, lab Labeling, visit Visitor) (grammar.Cost, error) {
	// Nodes are topologically indexed, so every node reachable from root
	// has an index no larger than root's.
	sc := rd.getScratch(root.Index + 1)
	defer rd.scratch.Put(sc)
	visits := 0
	return rd.reduce(context.Background(), root, goal, lab, visit, sc, rd.m, &visits)
}

// reduce walks the derivation of (root, goal) with an explicit stack:
// enter frames resolve the rule at a (node, nonterminal) combination and
// push its premises (kids for base rules, the RHS combination for chain
// rules) under an exit frame; exit frames fire in exactly the bottom-up
// left-to-right order the recursive formulation produced, so visitor
// (and therefore emission) order is unchanged. Costs accumulate globally:
// every applied rule contributes exactly once, which is the same sum the
// recursive version computed, and saturating Cost addition makes the
// association irrelevant.
// visits is the caller-scoped poll counter (see CoverContext): it
// persists across the roots of one cover so the checkpoint cadence holds
// for many-rooted forests too.
func (rd *Reducer) reduce(ctx context.Context, root *ir.Node, goal grammar.NT, lab Labeling, visit Visitor, sc *coverScratch, m *metrics.Counters, visits *int) (total grammar.Cost, err error) {
	numNT := rd.g.NumNonterms()
	done := ctx.Done() // nil for background contexts: no polling at all
	stack := append(sc.stack[:0], coverFrame{n: root, nt: goal, ri: -1})
	defer func() { sc.stack = stack[:0] }() // keep grown capacity for the next call
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.ri >= 0 {
			// Exit: premises reduced — account the applied rule and fire
			// the action.
			r := &rd.g.Rules[fr.ri]
			if fn := rd.dyn[fr.ri]; fn != nil && !r.IsChain {
				total = total.Add(fn(fr.n))
			} else {
				total = total.Add(r.Cost)
			}
			if visit != nil {
				visit(fr.n, fr.nt, r)
			}
			continue
		}
		key := fr.n.Index*numNT + int(fr.nt)
		if sc.seen[key>>6]&(1<<(key&63)) != 0 {
			// DAG sharing: this (node, nonterminal) was already reduced via
			// another parent; its cost and actions are accounted there.
			continue
		}
		sc.seen[key>>6] |= 1 << (key & 63)
		m.CountReduce()
		if done != nil {
			if *visits++; *visits%CancelCheckInterval == 0 {
				select {
				case <-done:
					return 0, ctx.Err()
				default:
				}
			}
		}

		ri := lab.RuleAt(fr.n, fr.nt)
		if ri < 0 {
			return 0, fmt.Errorf("reduce: no derivation of %s for operator %s at node %d",
				rd.g.NTName(fr.nt), rd.g.OpName(fr.n.Op), fr.n.Index)
		}
		r := &rd.g.Rules[ri]
		stack = append(stack, coverFrame{n: fr.n, nt: fr.nt, ri: ri})
		if r.IsChain {
			stack = append(stack, coverFrame{n: fr.n, nt: r.ChainRHS, ri: -1})
			continue
		}
		if r.Op != fr.n.Op {
			return 0, fmt.Errorf("reduce: labeling is corrupt: rule %s (op %s) recorded at node with op %s",
				rd.g.RuleName(int(ri)), rd.g.OpName(r.Op), rd.g.OpName(fr.n.Op))
		}
		for ki := len(fr.n.Kids) - 1; ki >= 0; ki-- {
			stack = append(stack, coverFrame{n: fr.n.Kids[ki], nt: r.Kids[ki], ri: -1})
		}
	}
	return total, nil
}

// Derivation records an applied-rule trace, the flattened form the golden
// tests compare across engines.
type Derivation struct {
	Steps []Step
	Cost  grammar.Cost
}

// Step is one applied rule.
type Step struct {
	NodeIndex int
	NT        grammar.NT
	RuleIndex int
}

// Trace covers f and records every applied rule in visit order.
func (rd *Reducer) Trace(f *ir.Forest, lab Labeling) (*Derivation, error) {
	d := &Derivation{}
	cost, err := rd.Cover(f, lab, func(n *ir.Node, nt grammar.NT, r *grammar.Rule) {
		d.Steps = append(d.Steps, Step{NodeIndex: n.Index, NT: nt, RuleIndex: r.Index})
	})
	if err != nil {
		return nil, err
	}
	d.Cost = cost
	return d, nil
}

// String renders a derivation compactly for diagnostics.
func (d *Derivation) String(g *grammar.Grammar) string {
	s := fmt.Sprintf("cost=%d:", d.Cost)
	for _, st := range d.Steps {
		s += fmt.Sprintf(" n%d/%s:%s", st.NodeIndex, g.NTName(st.NT), g.RuleName(st.RuleIndex))
	}
	return s
}
