package automaton

import (
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/metrics"
)

// Compute constructs the state for a node with operator op whose children
// are in states kids, writing its cost-normalized vectors into delta and
// rule, which must have one entry per nonterminal of g. It runs the same
// dynamic-programming step as the iburg-style labeler — all base rules of
// op, then chain closure — but over the children's *relative* costs, and
// normalizes the result. The vectors are the caller's (scratch, usually):
// Table.Intern copies them only when they describe a new state.
//
// dynVals supplies the evaluated costs of op's dynamic rules, aligned with
// g.DynRules(op); it must be non-nil exactly when the operator has dynamic
// rules. For the offline generator dynVals is always nil because grammars
// with dynamic rules cannot be tabulated offline (the reason the paper's
// on-demand construction exists).
//
// Using relative child costs is sound: within one child position all rules
// see cost vectors shifted by the same normalization offset, so the argmin
// rule per nonterminal — and therefore the normalized result — is the same
// as with absolute costs. This is the classical BURS state identity that
// both our engines and burg rely on.
func Compute(g *grammar.Grammar, op grammar.OpID, kids []*State, dynVals []grammar.Cost,
	deltaCap grammar.Cost, m *metrics.Counters, delta []grammar.Cost, rule []int32) {

	for nt := range delta {
		delta[nt] = grammar.Inf
		rule[nt] = -1
	}
	base := g.BaseRules(op)
	m.CountRules(len(base))
	for _, ri := range base {
		r := &g.Rules[ri]
		var c grammar.Cost
		if pos := g.DynPos(int(ri)); pos >= 0 {
			c = dynVals[pos]
		} else {
			c = r.Cost
		}
		if c.IsInf() {
			continue
		}
		for ki := range r.Kids {
			c = c.Add(kids[ki].Delta[r.Kids[ki]])
			if c.IsInf() {
				break
			}
		}
		if c < delta[r.LHS] {
			delta[r.LHS] = c
			rule[r.LHS] = int32(ri)
		}
	}
	dp.CloseChains(g, delta, rule, m)
	Normalize(delta, rule, deltaCap)
}

// Normalize rebases a cost row to relative costs: the minimum becomes 0,
// and entries whose delta exceeds deltaCap are treated as underivable (the
// finite-state-space safety valve). Rules of underivable entries are
// cleared so hash-consing sees a canonical form.
func Normalize(delta []grammar.Cost, rule []int32, deltaCap grammar.Cost) {
	min := grammar.Inf
	for _, d := range delta {
		if d < min {
			min = d
		}
	}
	if min.IsInf() {
		// Underivable from every nonterminal: canonical all-Inf state.
		for i := range delta {
			delta[i] = grammar.Inf
			rule[i] = -1
		}
		return
	}
	for i := range delta {
		if delta[i].IsInf() {
			rule[i] = -1
			continue
		}
		delta[i] -= min
		if delta[i] > deltaCap {
			delta[i] = grammar.Inf
			rule[i] = -1
		}
	}
}
