// Package dp implements the classical dynamic-programming tree parser used
// by iburg, lburg and BEG: at every IR node, walk all rules applicable at
// the node's operator, compute the minimal derivation cost for every
// nonterminal, and close over the chain rules.
//
// This is Baseline 1 of the reproduction — the flexible-but-slow end of the
// spectrum that the on-demand automaton (internal/core) is measured
// against — and also the reference oracle: the property tests check that
// every automaton engine computes exactly the cost tables this labeler
// computes.
package dp

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// Labeler is an iburg/lburg-style dynamic-programming labeler. It
// implements reduce.Labeler; all working state lives in the per-call
// Result, so one Labeler may label from many goroutines concurrently.
type Labeler struct {
	g       *grammar.Grammar
	dyn     []grammar.DynFunc // indexed by rule index; nil for fixed-cost rules
	m       *metrics.Counters
	results freelist.List[Result] // recycled across Label calls
}

// New creates a labeler for g. env supplies the dynamic-cost functions the
// grammar references (may be nil for grammars without dynamic rules).
// m may be nil to run uninstrumented.
func New(g *grammar.Grammar, env grammar.DynEnv, m *metrics.Counters) (*Labeler, error) {
	dyn, err := env.Bind(g)
	if err != nil {
		return nil, err
	}
	return &Labeler{g: g, dyn: dyn, m: m}, nil
}

// Grammar returns the grammar the labeler runs.
func (l *Labeler) Grammar() *grammar.Grammar { return l.g }

// Result holds the labeling of a forest: for every node and nonterminal,
// the minimal derivation cost and the first rule of a minimal derivation.
type Result struct {
	g *grammar.Grammar
	// Costs[node][nt] is the minimal cost of deriving the subtree rooted
	// at node from nt (grammar.Inf if impossible).
	Costs [][]grammar.Cost
	// Rules[node][nt] is the rule index used in the first derivation step
	// (-1 if impossible).
	Rules [][]int32
	// Backing arrays, reused when the Result is recycled through the
	// labeler's free list.
	costBack []grammar.Cost
	ruleBack []int32
}

// reuse resizes the result for nodes×numNT, reusing the backing arrays
// when capacity allows, and re-slices the per-node row headers.
func (r *Result) reuse(nodes, numNT int) {
	need := nodes * numNT
	if cap(r.costBack) < need {
		r.costBack = make([]grammar.Cost, need)
		r.ruleBack = make([]int32, need)
	} else {
		r.costBack = r.costBack[:need]
		r.ruleBack = r.ruleBack[:need]
	}
	if cap(r.Costs) < nodes {
		r.Costs = make([][]grammar.Cost, nodes)
		r.Rules = make([][]int32, nodes)
	} else {
		r.Costs = r.Costs[:nodes]
		r.Rules = r.Rules[:nodes]
	}
	for i := 0; i < nodes; i++ {
		r.Costs[i] = r.costBack[i*numNT : (i+1)*numNT : (i+1)*numNT]
		r.Rules[i] = r.ruleBack[i*numNT : (i+1)*numNT : (i+1)*numNT]
	}
}

// RuleAt implements the labeling interface used by the reducer.
func (r *Result) RuleAt(n *ir.Node, nt grammar.NT) int32 {
	return r.Rules[n.Index][nt]
}

// CostAt returns the minimal cost for deriving node n from nt.
func (r *Result) CostAt(n *ir.Node, nt grammar.NT) grammar.Cost {
	return r.Costs[n.Index][nt]
}

// Label implements reduce.Labeler; see LabelResult for the concrete
// cost/rule tables the oracle tests read.
func (l *Labeler) Label(f *ir.Forest) reduce.Labeling { return l.LabelResult(f) }

// LabelMetered implements reduce.Labeler; see LabelResultMetered.
func (l *Labeler) LabelMetered(f *ir.Forest, m *metrics.Counters) reduce.Labeling {
	return l.LabelResultMetered(f, m)
}

// NumStates implements reduce.Labeler: dynamic programming tabulates no
// automaton, so all table stats are zero.
func (l *Labeler) NumStates() int { return 0 }

// NumTransitions implements reduce.Labeler (always 0; see NumStates).
func (l *Labeler) NumTransitions() int { return 0 }

// MemoryBytes implements reduce.Labeler (always 0; see NumStates).
func (l *Labeler) MemoryBytes() int { return 0 }

// LabelResult labels all nodes of f bottom-up (topological order, which
// also covers DAG inputs) and returns the per-node cost/rule tables.
func (l *Labeler) LabelResult(f *ir.Forest) *Result {
	return l.LabelResultMetered(f, nil)
}

// LabelResultMetered is LabelResult with per-call counter attribution:
// one call's events are counted into m instead of the labeler's
// configured sink (nil falls back to it).
func (l *Labeler) LabelResultMetered(f *ir.Forest, m *metrics.Counters) *Result {
	if m == nil {
		m = l.m
	}
	numNT := l.g.NumNonterms()
	// Recycled backing arrays keep warm-path allocation count at zero; the
	// Result flows back through ReleaseLabeling (or to the GC).
	res := l.results.Get()
	res.g = l.g
	res.reuse(len(f.Nodes), numNT)
	for i, n := range f.Nodes {
		l.labelNode(n, res, res.Costs[i], res.Rules[i], m)
	}
	return res
}

// ReleaseLabeling implements reduce.LabelingRecycler: it returns a Result
// obtained from this labeler to its free list. The Result (including its
// Costs and Rules rows) must not be used afterwards.
func (l *Labeler) ReleaseLabeling(lab reduce.Labeling) {
	if r, ok := lab.(*Result); ok && r != nil {
		l.results.Put(r)
	}
}

// labelNode computes the cost/rule row for one node given the (already
// computed) rows of its children.
func (l *Labeler) labelNode(n *ir.Node, res *Result, costs []grammar.Cost, rules []int32, m *metrics.Counters) {
	m.CountNode()
	for nt := range costs {
		costs[nt] = grammar.Inf
		rules[nt] = -1
	}
	base := l.g.BaseRules(n.Op)
	m.CountRules(len(base))
	for _, ri := range base {
		r := &l.g.Rules[ri]
		// Sum the children's costs first: a dynamic-cost function may only
		// run when the rule is structurally applicable (its kid
		// nonterminals are derivable), because such functions inspect the
		// matched pattern's shape (lcc's memop() does the same).
		var kidSum grammar.Cost
		for ki, kid := range n.Kids {
			kidSum = kidSum.Add(res.Costs[kid.Index][r.Kids[ki]])
			if kidSum.IsInf() {
				break
			}
		}
		if kidSum.IsInf() {
			continue
		}
		var c grammar.Cost
		if fn := l.dyn[ri]; fn != nil {
			m.CountDyn(1)
			c = fn(n)
			if c.IsInf() {
				continue
			}
		} else {
			c = r.Cost
		}
		c = c.Add(kidSum)
		if c < costs[r.LHS] {
			costs[r.LHS] = c
			rules[r.LHS] = int32(ri)
		}
	}
	CloseChains(l.g, costs, rules, m)
}

// CloseChains applies chain rules to a cost row until fixpoint. It is
// shared with the automaton state constructor, which runs the identical
// closure on child-state cost vectors.
func CloseChains(g *grammar.Grammar, costs []grammar.Cost, rules []int32, m *metrics.Counters) {
	chains := g.ChainRules()
	for changed := true; changed; {
		changed = false
		m.CountChain(len(chains))
		for _, ri := range chains {
			r := &g.Rules[ri]
			c := costs[r.ChainRHS].Add(r.Cost)
			if c < costs[r.LHS] {
				costs[r.LHS] = c
				rules[r.LHS] = int32(ri)
				changed = true
			}
		}
	}
}

// Derivable reports whether the root of f's i-th tree can be derived from
// the grammar's start nonterminal.
func (r *Result) Derivable(root *ir.Node) bool {
	return !r.Costs[root.Index][r.g.Start].IsInf()
}

// Explain renders the cost row of a node, for debugging and golden tests.
func (r *Result) Explain(n *ir.Node) string {
	s := ""
	for nt := 0; nt < len(r.Costs[n.Index]); nt++ {
		c := r.Costs[n.Index][nt]
		if c.IsInf() {
			continue
		}
		s += fmt.Sprintf("%s: cost=%d rule=%s\n", r.g.NTName(grammar.NT(nt)), c, r.g.RuleName(int(r.Rules[n.Index][nt])))
	}
	return s
}
