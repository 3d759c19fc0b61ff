package automaton

import (
	"errors"
	"fmt"

	"repro/internal/grammar"
)

// TableSet is the flat form of a generated (offline) automaton: every
// state's cost-normalized vectors plus the leaf/unary/binary transition
// tables in Chase-compressed representer form — Mu projects each state
// onto its class at each child position (see ClassSpace), and T1/T2 are
// indexed by classes. It is the unit of exchange between the closure
// (GenerateTables; internal/gen serializes it as an `.isel` blob) and the
// serving side (core.NewSeeded turns it into the static or hybrid kind's
// engine without re-running any closure work). The on-demand engine keys
// its own tables the same way, so seeding one is adoption rather than
// translation.
//
// The engine does not keep Deltas or Rules: ValidateTables copies every
// state's vectors into its state table. It keeps T1 and T2 as its initial
// class grids (after checking that Mu is its own projection), so those
// must not be mutated afterwards.
type TableSet struct {
	// NumNT is the grammar's nonterminal count; state vectors are rows of
	// this width.
	NumNT int
	// Deltas/Rules hold the state vectors row-major: state s's entry for
	// nonterminal nt sits at s*NumNT+nt. len = NumStates*NumNT.
	Deltas []grammar.Cost
	Rules  []int32
	// Leaf[op] is the state id of arity-0 operator op (-1 for operators
	// with children).
	Leaf []int32
	// NReps[op][p] is the number of representer classes at child position p
	// of op; Mu[op][p][stateID] projects a state onto its class.
	NReps [][2]int32
	Mu    [][2][]int32
	// T1[op][rep0] (unary) and T2[op][rep0*NReps[op][1]+rep1] (binary) are
	// the transition tables, holding state ids.
	T1 [][]int32
	T2 [][]int32
}

// NumStates returns the number of states the set describes.
func (ts *TableSet) NumStates() int {
	if ts.NumNT == 0 {
		return 0
	}
	return len(ts.Deltas) / ts.NumNT
}

// TransitionEntries counts the tabulated transition cells, one per class
// pair (the figure NumTransitions reports after a load).
func (ts *TableSet) TransitionEntries() int {
	n := 0
	for op := range ts.T1 {
		n += len(ts.T1[op]) + len(ts.T2[op])
	}
	return n
}

// ErrNoFixedClosure is the typed failure of hybrid table generation and
// loading for a grammar whose every leaf operator carries dynamic rules:
// there is nothing to seed the fixed closure with, so a hybrid engine
// would be the on-demand engine with extra steps. Match with errors.Is;
// callers should fall back to KindOnDemand.
var ErrNoFixedClosure = errors.New("automaton: no fixed-operator closure (every leaf operator has dynamic-cost rules); use the on-demand engine")

// ValidateState applies the per-state rules every state vector pair
// must satisfy to be a state of g: each rule id lies in [-1, NumRules),
// each cost is non-negative, and a cost is infinite exactly when its rule
// is -1 — the cost-normalized form Compute produces. Two structural rules
// follow from how Compute picks rules, and keep the reducer and emitter
// from looping on a corrupt state: the rule recorded for a nonterminal
// derives that nonterminal, and the chain rules a state records never
// cycle (chain closure records a rule only when it lowers the cost, and
// grammars reject zero-cost chain cycles). ValidateTables checks
// every table-set state with it, and core.Engine.Load every persisted one.
func ValidateState(g *grammar.Grammar, delta []grammar.Cost, rule []int32) error {
	for nt := range delta {
		if rule[nt] < -1 || rule[nt] >= int32(g.NumRules()) {
			return fmt.Errorf("rule %d outside grammar %s", rule[nt], g.Name)
		}
		if delta[nt] < 0 {
			return fmt.Errorf("negative cost %d for nonterminal %d", delta[nt], nt)
		}
		if delta[nt].IsInf() != (rule[nt] == -1) {
			return fmt.Errorf("not cost-normalized at nonterminal %d (delta %d, rule %d)", nt, delta[nt], rule[nt])
		}
		if rule[nt] >= 0 && int(g.Rules[rule[nt]].LHS) != nt {
			return fmt.Errorf("rule %d for nonterminal %d derives nonterminal %d", rule[nt], nt, g.Rules[rule[nt]].LHS)
		}
	}
	for nt := range rule {
		cur := nt
		for steps := 0; rule[cur] >= 0 && g.Rules[rule[cur]].IsChain; steps++ {
			if steps == len(rule) {
				return fmt.Errorf("chain rules cycle through nonterminal %d", nt)
			}
			cur = int(g.Rules[rule[cur]].ChainRHS)
		}
	}
	return nil
}

// ValidateTables checks that ts is a well-formed table set for g and
// returns its states interned into a fresh table, ids preserved. It is
// the one validator every table set crosses before an engine serves it
// (core.NewSeeded calls it), so a blob the framing checks accept
// (checksum, fingerprint, shape) but whose body is wrong fails here
// rather than panicking or mislabeling at serve time. It checks
// provenance-free structure only; callers match the grammar fingerprint
// first.
//
// The rules: every state passes ValidateState and is unique; every
// operator of arity k carries k projection rows of one entry per state;
// a fixed operator's representer ids, transition cells and leaf state are
// in range; and a dynamic operator (one with dynamic-cost rules) carries
// no leaf state, no classes and no transitions — its states are built on
// demand. A set with no states fails with ErrNoFixedClosure.
//
// The state vectors are copied into the returned table, one copy per
// state: the table never aliases ts.Deltas or ts.Rules.
func ValidateTables(g *grammar.Grammar, ts *TableSet) (*Table, error) {
	numNT := g.NumNonterms()
	numOps := g.NumOps()
	if ts.NumNT != numNT {
		return nil, fmt.Errorf("automaton: table set has %d nonterminals, grammar %s has %d", ts.NumNT, g.Name, numNT)
	}
	if numNT == 0 || len(ts.Deltas)%numNT != 0 || len(ts.Rules) != len(ts.Deltas) {
		return nil, fmt.Errorf("automaton: malformed state vectors (%d deltas, %d rules, %d nonterminals)",
			len(ts.Deltas), len(ts.Rules), numNT)
	}
	if len(ts.Leaf) != numOps || len(ts.NReps) != numOps || len(ts.Mu) != numOps ||
		len(ts.T1) != numOps || len(ts.T2) != numOps {
		return nil, fmt.Errorf("automaton: table set sized for %d operators, grammar %s has %d", len(ts.Leaf), g.Name, numOps)
	}
	numStates := len(ts.Deltas) / numNT
	if numStates == 0 {
		return nil, fmt.Errorf("automaton: empty table set for grammar %s: %w", g.Name, ErrNoFixedClosure)
	}

	table := NewTable(g)
	for s := 0; s < numStates; s++ {
		delta := ts.Deltas[s*numNT : (s+1)*numNT]
		rule := ts.Rules[s*numNT : (s+1)*numNT]
		if err := ValidateState(g, delta, rule); err != nil {
			return nil, fmt.Errorf("automaton: state %d: %w", s, err)
		}
		// Duplicate vectors would intern to one id and shift every later
		// state off its table id — transition cells would then point at
		// the wrong states.
		if st, created := table.Intern(delta, rule, nil); !created || st.ID != int32(s) {
			return nil, fmt.Errorf("automaton: duplicate state %d in table set", s)
		}
	}

	for op := 0; op < numOps; op++ {
		opName := g.OpName(grammar.OpID(op))
		arity := g.Ops[op].Arity
		for p := 0; p < arity; p++ {
			if len(ts.Mu[op][p]) != numStates {
				return nil, fmt.Errorf("automaton: operator %s position %d: projection row has %d entries, want %d states",
					opName, p, len(ts.Mu[op][p]), numStates)
			}
		}
		if g.HasDynRules(grammar.OpID(op)) {
			// Beyond the wire format's placeholder projection rows, a
			// dynamic operator must carry nothing.
			if ts.Leaf[op] != -1 || ts.NReps[op][0] != 0 || ts.NReps[op][1] != 0 ||
				len(ts.T1[op]) != 0 || len(ts.T2[op]) != 0 {
				return nil, fmt.Errorf("automaton: dynamic operator %s carries offline tables", opName)
			}
			continue
		}
		if arity == 0 {
			if id := ts.Leaf[op]; id < 0 || int(id) >= numStates {
				return nil, fmt.Errorf("automaton: leaf operator %s references state %d of %d", opName, id, numStates)
			}
			continue
		}
		for p := 0; p < arity; p++ {
			nreps := ts.NReps[op][p]
			for _, rep := range ts.Mu[op][p] {
				if rep < 0 || rep >= nreps {
					return nil, fmt.Errorf("automaton: operator %s position %d: representer %d of %d",
						opName, p, rep, nreps)
				}
			}
		}
		var cells []int32
		if arity == 1 {
			cells = ts.T1[op]
			if len(cells) != int(ts.NReps[op][0]) {
				return nil, fmt.Errorf("automaton: operator %s: %d unary transitions, want %d",
					opName, len(cells), ts.NReps[op][0])
			}
		} else {
			cells = ts.T2[op]
			// The product is computed in int: an int32 multiply could wrap
			// for crafted rep counts and slip a short table past the check.
			want := int(ts.NReps[op][0]) * int(ts.NReps[op][1])
			if len(cells) != want {
				return nil, fmt.Errorf("automaton: operator %s: %d binary transitions, want %d",
					opName, len(cells), want)
			}
		}
		for _, id := range cells {
			if id < 0 || int(id) >= numStates {
				return nil, fmt.Errorf("automaton: operator %s transition references state %d of %d", opName, id, numStates)
			}
		}
	}
	return table, nil
}

// MaxGridIndex is the largest n whose direct arrays over n indices for
// g's fixed operators — 4·n bytes per unary operator, 4·n² per binary —
// fit ExpandMaxBytes together. It bounds the representer classes the
// on-demand engine's class grids may index (the engine routes classes
// past it to its hash path).
func MaxGridIndex(g *grammar.Grammar) int {
	// gridBytes grows with the index count and exceeds the bound at hi
	// (unless g has no fixed unary or binary operator at all).
	lo, hi := 0, ExpandMaxBytes/4+1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if gridBytes(g, mid) <= ExpandMaxBytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// gridBytes is the size of direct arrays over n indices for g's fixed
// operators: 4·n per unary operator, 4·n² per binary.
func gridBytes(g *grammar.Grammar, n int) int {
	b := 0
	for op := range g.Ops {
		if g.HasDynRules(grammar.OpID(op)) {
			continue
		}
		switch g.Ops[op].Arity {
		case 1:
			b += 4 * n
		case 2:
			b += 4 * n * n
		}
	}
	return b
}
