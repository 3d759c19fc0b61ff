package automaton

import (
	"errors"

	"repro/internal/grammar"
)

// The hybrid engine's offline half: the fixed-operator closure of a full
// grammar (GenerateTables), validated and expanded for serving. Dynamic
// operators carry no tables; they fall through to the on-demand path.

// ErrNoFixedClosure is the typed failure of hybrid table generation and
// loading for a grammar whose every leaf operator carries dynamic rules:
// there is nothing to seed the fixed closure with, so the "offline half"
// would be empty and a hybrid engine would be the on-demand engine with
// extra steps. Match with errors.Is; callers should fall back to
// KindOnDemand.
var ErrNoFixedClosure = errors.New("automaton: no fixed-operator closure (every leaf operator has dynamic-cost rules); use the on-demand engine")

// HybridOverlay is the validated, expanded serving form of a table set
// for the hybrid engine: everything it needs to answer fixed-operator
// transitions by direct state-id-indexed loads, plus the state table it
// starts from. The arrays are immutable after construction.
type HybridOverlay struct {
	g *grammar.Grammar
	n int
	// Table holds the table set's states with their blob ids, as
	// ValidateTables interned them. The one hybrid engine built from the
	// overlay takes it over (leaving nil) as its on-demand table, so the
	// offline states are its first states. Their vectors sit in the table set's contiguous
	// backing arrays, so the reducer's per-node Delta/Rule reads over the
	// offline states walk packed cache lines — a locality the on-demand
	// engine, whose states are allocated one miss at a time all over the
	// heap, never gets.
	Table *Table
	// Leaf[op] is the offline state id of fixed arity-0 operators; -1 for
	// dynamic (and non-leaf) operators.
	Leaf []int32
	// Dir1[op][kid] and Dir2[op][l*NumStates()+r] are the expanded direct
	// transition arrays of the fixed operators — plain non-atomic loads,
	// the static engine's serving layout. nil per operator for dynamic
	// operators; nil for every operator when expansion would exceed
	// ExpandMaxBytes (the engine then seeds states only and lets its own
	// dense tables warm under traffic).
	Dir1 [][]int32
	Dir2 [][]int32
	// Entries counts the compressed transition cells the table set
	// carried (the offline share of NumTransitions).
	Entries int
}

// NumStates returns the number of offline states the overlay seeds.
func (ov *HybridOverlay) NumStates() int { return ov.n }

// Grammar returns the full grammar the overlay serves.
func (ov *HybridOverlay) Grammar() *grammar.Grammar { return ov.g }

// MemoryBytes estimates the overlay's own footprint: the expanded direct
// arrays plus the leaf row. The offline states are not counted here — they
// live in (and are accounted by) the engine's state table.
func (ov *HybridOverlay) MemoryBytes() int {
	b := 4 * len(ov.Leaf)
	for op := range ov.Dir1 {
		b += 4 * len(ov.Dir1[op])
	}
	for op := range ov.Dir2 {
		b += 4 * len(ov.Dir2[op])
	}
	return b
}

// NewHybridOverlay validates a table set against the full grammar g
// (ValidateTables: dynamic operators must carry no tables) and expands
// its fixed-operator tables into direct state-id-indexed arrays, bounded
// by ExpandMaxBytes like the static engine's. A set with no states at all
// fails with ErrNoFixedClosure.
//
// The overlay takes ownership of ts.
func NewHybridOverlay(g *grammar.Grammar, ts *TableSet) (*HybridOverlay, error) {
	table, err := ValidateTables(g, ts)
	if err != nil {
		return nil, err
	}
	ov := &HybridOverlay{
		g:       g,
		n:       table.Len(),
		Table:   table,
		Leaf:    ts.Leaf,
		Entries: ts.TransitionEntries(),
	}
	// Past the bound the engine serves seed-states-only (still correct:
	// every fixed transition just reconstructs on demand, landing on the
	// same content-addressed ids).
	ov.Dir1, ov.Dir2 = expand(g, ov.NumStates(), ts)
	return ov, nil
}
