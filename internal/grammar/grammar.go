// Package grammar models tree grammars for bottom-up tree-parsing ("BURS")
// instruction selection, in the style of burg/iburg/lburg machine
// descriptions.
//
// A tree grammar consists of operators (the intermediate-representation
// node kinds, each with a fixed arity), nonterminals, and rules. A rule is
// either a chain rule
//
//	lhs: rhs            (cost)
//
// deriving one nonterminal from another, or a base rule
//
//	lhs: Op(nt1, ..., ntk)   (cost)
//
// matching an operator whose children derive from the given nonterminals.
// Source grammars may contain multi-node patterns such as
// Store(addr, Plus(Load(addr), reg)); Normalize splits those into
// normal-form rules by introducing helper nonterminals, exactly as the
// tree-parsing literature describes.
//
// Rule costs are either fixed or dynamic: a dynamic cost names a function
// (bound via DynEnv) evaluated at instruction-selection time, the mechanism
// lcc's lburg uses for read-modify-write patterns and immediate-range
// tests, and the feature that classical offline tree-parsing automata
// cannot support — which is the problem the on-demand automata of
// Ertl/Casey/Gregg (PLDI 2006) solve.
package grammar

import (
	"fmt"
	"sync"
)

// OpID identifies an operator within a Grammar.
type OpID int16

// NT identifies a nonterminal within a Grammar.
type NT int16

// NoNT is the invalid nonterminal id.
const NoNT NT = -1

// NoOp is the invalid operator id.
const NoOp OpID = -1

// MaxArity is the largest operator arity the engines support. lcc-style
// intermediate representations are at most binary (ternary constructs are
// expressed with two nodes), and binary arity keeps automaton transition
// tables two-dimensional, as in burg.
const MaxArity = 2

// Op is an operator of the intermediate representation (a "terminal" of the
// tree grammar).
type Op struct {
	Name  string
	Arity int
	ID    OpID
}

// Nonterm is a nonterminal of the tree grammar.
type Nonterm struct {
	Name string
	ID   NT
	// Helper reports that the nonterminal was introduced by normal-form
	// conversion rather than written by the grammar author.
	Helper bool
}

// Rule is a normal-form rule of the grammar.
type Rule struct {
	// Index is the rule's position in Grammar.Rules; engines use it as the
	// dense rule identifier.
	Index int
	// ID is the external rule number from the grammar source (burg-style
	// "= n"). Helper rules produced by normalization share the ID of the
	// source rule with a distinguishing Part suffix.
	ID   int
	Part string // "", or "a", "b", ... for split multi-node rules

	LHS NT

	// IsChain distinguishes chain rules (lhs: rhs-nonterminal) from base
	// rules (lhs: Op(...)).
	IsChain  bool
	ChainRHS NT // valid iff IsChain

	Op   OpID // valid iff !IsChain
	Kids []NT // valid iff !IsChain; len == arity of Op

	// Cost is the fixed cost. For dynamic rules it is the cost the
	// grammar author expects in the common (applicable) case; engines
	// ignore it when DynCost is set and call the bound function instead.
	Cost Cost
	// DynCost names the dynamic-cost function, "" for fixed-cost rules.
	DynCost string

	// Template is the emission template, e.g. "addq %1, %0". %k is the
	// operand of kid k's own nonterminal, whatever rule derived it there,
	// a templated chain rule included: with a: r "=(%0)" and r rendering
	// "v1", %0 of L(a) is "(v1)". Dotted paths (%1.0) descend through the
	// helper nonterminals of multi-node patterns; in a chain rule %0 is
	// the right-hand side's operand. %c is the node's leaf value, %s its
	// symbol, %d an instruction's result register and %% a percent sign;
	// a leading '=' makes a value template (see package emit). Empty
	// templates emit nothing (typical for chain rules and helper rules).
	Template string

	// Src is the original source production text, for diagnostics.
	Src string
}

// IsDynamic reports whether the rule's cost is computed at selection time.
func (r *Rule) IsDynamic() bool { return r.DynCost != "" }

// String renders the rule in burg-like syntax.
func (r *Rule) String() string {
	if r.Src != "" {
		return r.Src
	}
	return fmt.Sprintf("rule %d%s", r.ID, r.Part)
}

// Grammar is a validated, normal-form tree grammar.
type Grammar struct {
	Name  string
	Start NT

	Ops      []Op
	Nonterms []Nonterm
	Rules    []Rule

	opsByName map[string]OpID
	ntsByName map[string]NT

	// baseByOp[op] lists indices into Rules of base rules for op.
	baseByOp [][]int32
	// chains lists indices of all chain rules.
	chains []int32
	// chainsByRHS[nt] lists chain-rule indices whose RHS is nt, used by the
	// chain-closure relaxation.
	chainsByRHS [][]int32
	// dynByOp[op] lists indices of dynamic base rules for op, in rule
	// order; this ordering defines the dynamic-cost signature layout.
	dynByOp [][]int32
	// dynPos[ruleIdx] is the rule's position within dynByOp[rule.Op]
	// (-1 for fixed-cost rules), so engines can index a signature vector
	// directly from a rule.
	dynPos []int32

	maxExternalID int

	// fpOnce guards fp, the Fingerprint computed on first use.
	fpOnce sync.Once
	fp     uint64
}

// NumOps returns the number of operators.
func (g *Grammar) NumOps() int { return len(g.Ops) }

// NumNonterms returns the number of nonterminals (including helpers).
func (g *Grammar) NumNonterms() int { return len(g.Nonterms) }

// NumRules returns the number of normal-form rules.
func (g *Grammar) NumRules() int { return len(g.Rules) }

// OpByName returns the operator id for name.
func (g *Grammar) OpByName(name string) (OpID, bool) {
	id, ok := g.opsByName[name]
	return id, ok
}

// MustOp returns the operator id for name and panics if it does not exist.
// It is intended for tests and workload builders where the vocabulary is
// known statically.
func (g *Grammar) MustOp(name string) OpID {
	id, ok := g.opsByName[name]
	if !ok {
		panic(fmt.Sprintf("grammar %s: no operator %q", g.Name, name))
	}
	return id
}

// NTByName returns the nonterminal id for name.
func (g *Grammar) NTByName(name string) (NT, bool) {
	id, ok := g.ntsByName[name]
	return id, ok
}

// MustNT returns the nonterminal id for name and panics if it does not
// exist.
func (g *Grammar) MustNT(name string) NT {
	id, ok := g.ntsByName[name]
	if !ok {
		panic(fmt.Sprintf("grammar %s: no nonterminal %q", g.Name, name))
	}
	return id
}

// OpName returns the name of op ("?" if invalid).
func (g *Grammar) OpName(op OpID) string {
	if op < 0 || int(op) >= len(g.Ops) {
		return "?"
	}
	return g.Ops[op].Name
}

// NTName returns the name of nt ("?" if invalid).
func (g *Grammar) NTName(nt NT) string {
	if nt < 0 || int(nt) >= len(g.Nonterms) {
		return "?"
	}
	return g.Nonterms[nt].Name
}

// Arity returns the arity of op.
func (g *Grammar) Arity(op OpID) int { return g.Ops[op].Arity }

// BaseRules returns the indices (into Rules) of base rules for op.
func (g *Grammar) BaseRules(op OpID) []int32 { return g.baseByOp[op] }

// ChainRules returns the indices of all chain rules.
func (g *Grammar) ChainRules() []int32 { return g.chains }

// ChainRulesFrom returns the chain rules whose right-hand side is nt (the
// rules that become cheaper to apply when nt's cost improves).
func (g *Grammar) ChainRulesFrom(nt NT) []int32 { return g.chainsByRHS[nt] }

// DynRules returns the indices of dynamic base rules for op; the slice
// order defines the layout of dynamic-cost signatures for the op.
func (g *Grammar) DynRules(op OpID) []int32 { return g.dynByOp[op] }

// HasDynRules reports whether op has any dynamic base rules.
func (g *Grammar) HasDynRules(op OpID) bool { return len(g.dynByOp[op]) > 0 }

// DynPos returns the position of rule index i within the dynamic-cost
// signature of its operator, or -1 for fixed-cost rules.
func (g *Grammar) DynPos(i int) int32 { return g.dynPos[i] }

// HasAnyDynRules reports whether the grammar contains any dynamic rule.
func (g *Grammar) HasAnyDynRules() bool {
	for i := range g.Rules {
		if g.Rules[i].IsDynamic() {
			return true
		}
	}
	return false
}

// RuleName renders a compact human-readable identifier for rule index i,
// e.g. "6c" for the third split part of source rule 6.
func (g *Grammar) RuleName(i int) string {
	if i < 0 || i >= len(g.Rules) {
		return "?"
	}
	r := &g.Rules[i]
	return fmt.Sprintf("%d%s", r.ID, r.Part)
}

// buildIndexes (re)computes the derived lookup structures. It must be
// called whenever Rules, Ops, or Nonterms change. Name maps already set
// are kept: the parser builds them as it reads the source. Each per-op and
// per-nonterminal rule list is a window of one shared backing array.
func (g *Grammar) buildIndexes() {
	if g.opsByName == nil {
		g.opsByName = make(map[string]OpID, len(g.Ops))
		for i := range g.Ops {
			g.opsByName[g.Ops[i].Name] = OpID(i)
		}
	}
	for i := range g.Ops {
		g.Ops[i].ID = OpID(i)
	}
	if g.ntsByName == nil {
		g.ntsByName = make(map[string]NT, len(g.Nonterms))
		for i := range g.Nonterms {
			g.ntsByName[g.Nonterms[i].Name] = NT(i)
		}
	}
	for i := range g.Nonterms {
		g.Nonterms[i].ID = NT(i)
	}
	// Count each list's length, then carve the lists from one array per
	// index and fill them in rule order.
	baseN := make([]int, len(g.Ops))
	dynN := make([]int, len(g.Ops))
	rhsN := make([]int, len(g.Nonterms))
	nChains, nDyn := 0, 0
	g.maxExternalID = 0
	for i := range g.Rules {
		r := &g.Rules[i]
		r.Index = i
		if r.ID > g.maxExternalID {
			g.maxExternalID = r.ID
		}
		switch {
		case r.IsChain:
			nChains++
			rhsN[r.ChainRHS]++
		case r.IsDynamic():
			nDyn++
			dynN[r.Op]++
			fallthrough
		default:
			baseN[r.Op]++
		}
	}
	g.chains = make([]int32, 0, nChains)
	g.baseByOp = carve(baseN, len(g.Rules)-nChains)
	g.dynByOp = carve(dynN, nDyn)
	g.chainsByRHS = carve(rhsN, nChains)
	g.dynPos = make([]int32, len(g.Rules))
	for i := range g.Rules {
		r := &g.Rules[i]
		g.dynPos[i] = -1
		if r.IsChain {
			g.chains = append(g.chains, int32(i))
			g.chainsByRHS[r.ChainRHS] = append(g.chainsByRHS[r.ChainRHS], int32(i))
			continue
		}
		g.baseByOp[r.Op] = append(g.baseByOp[r.Op], int32(i))
		if r.IsDynamic() {
			g.dynPos[i] = int32(len(g.dynByOp[r.Op]))
			g.dynByOp[r.Op] = append(g.dynByOp[r.Op], int32(i))
		}
	}
}

// carve returns one empty list per entry of counts, each with capacity
// for exactly its count, windows of one array of total entries.
func carve(counts []int, total int) [][]int32 {
	back := make([]int32, total)
	lists := make([][]int32, len(counts))
	for i, n := range counts {
		if n > 0 {
			lists[i] = back[:0:n]
			back = back[n:]
		}
	}
	return lists
}
