// Package automaton provides the tree-parsing-automaton substrate shared
// by the offline (burg-style) generator and the on-demand engine of the
// paper: cost-normalized states, a hash-consing state table, and the state
// constructor ("work function") that turns an operator plus child states
// into a new state by running the dynamic-programming labeling step once.
//
// A state is the equivalence class of all subtrees that have, for every
// nonterminal, the same optimal first rule and the same cost relative to
// the cheapest nonterminal (Pelegrí-Llopart/Graham BURS theory;
// Proebsting, TOPLAS '95). Relative ("delta") costs are what make the
// state space finite.
package automaton

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// ErrStateBudget is the typed error behind Options.MaxStates: interning
// that would grow the state table past its configured budget fails with an
// error wrapping this sentinel instead of growing without bound. Callers
// match it with errors.Is; the compilation server surfaces it as HTTP 503.
var ErrStateBudget = errors.New("automaton: state budget exhausted")

// DefaultDeltaCap is the default bound on relative costs. Deltas above the
// cap are normalized to "not derivable". For realistic grammars (with the
// chain-rule structure Proebsting assumes) deltas stay tiny and the cap
// never triggers; it exists as the safety valve that guarantees a finite
// state space for arbitrary grammars, and as the knob for the delta-cap
// ablation experiment.
const DefaultDeltaCap grammar.Cost = 1 << 20

// State is a cost-normalized labeling result.
type State struct {
	// ID is the state's index in its Table.
	ID int32
	// Delta[nt] is the cost of deriving the represented subtrees from nt,
	// relative to the cheapest nonterminal (grammar.Inf if underivable).
	Delta []grammar.Cost
	// Rule[nt] is the rule index of the first derivation step (-1 if
	// underivable).
	Rule []int32
}

// RuleAt returns the optimal rule index for nt (-1 if underivable).
func (s *State) RuleAt(nt grammar.NT) int32 { return s.Rule[nt] }

// Derives reports whether the state derives nt.
func (s *State) Derives(nt grammar.NT) bool { return !s.Delta[nt].IsInf() }

// String renders the state for diagnostics.
func (s *State) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state %d {", s.ID)
	first := true
	for nt, d := range s.Delta {
		if d.IsInf() {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "nt%d:+%d/r%d", nt, d, s.Rule[nt])
	}
	b.WriteString("}")
	return b.String()
}

// MemoryBytes estimates the state's memory footprint, for the table-size
// experiment.
func (s *State) MemoryBytes() int {
	return 16 + 4*len(s.Delta) + 4*len(s.Rule)
}

// Table hash-conses states: structurally identical (delta, rule) vectors
// map to one *State, so state identity is pointer identity and transition
// tables can be keyed by small dense ids.
//
// Interning hashes the candidate vectors in place, looks the hash up in
// an index of state ids, and compares vectors only on a hash match. The
// vectors are copied when, and only when, a state is born: a lookup that
// finds its state allocates nothing, so constructors can compute into
// reusable scratch.
//
// Table is safe for concurrent use: interning (the construct slow path of
// the on-demand engine) serializes on an internal mutex, while the read
// side — Len, Get, States, MemoryBytes — is lock-free. The state list is
// append-only and published through an atomic slice header, so readers
// always observe a consistent prefix and never block on a concurrent
// intern.
type Table struct {
	g *grammar.Grammar
	// max bounds the number of interned states when > 0 (see SetBudget);
	// InternBudget refuses growth past it with ErrStateBudget.
	max int
	mu  sync.Mutex // guards the index and appends to the state list

	// index maps a vector hash to the newest state with that hash, and
	// chain[id] to the next older one (-1 ends the chain). Both are
	// touched only under mu.
	index map[uint64]int32
	chain []int32
	// states is the published (append-only) state list. Growth happens
	// under mu via append on a shared backing array: readers holding an
	// older header never index past their snapshot's length, and new
	// headers are released with an atomic store.
	states atomic.Pointer[[]*State]
	// bytes is the table's calibrated per-state charge (see intern),
	// accumulated at intern time so MemoryBytes is O(1) and
	// allocation-free — stats polling (the server's GET /stats) hits it on
	// every request.
	bytes atomic.Int64
}

// NewTable creates an empty state table for g.
func NewTable(g *grammar.Grammar) *Table {
	t := &Table{g: g, index: make(map[uint64]int32)}
	empty := []*State(nil)
	t.states.Store(&empty)
	return t
}

// Grammar returns the grammar whose states the table holds.
func (t *Table) Grammar() *grammar.Grammar { return t.g }

// Len returns the number of distinct states.
func (t *Table) Len() int { return len(*t.states.Load()) }

// Get returns the state with the given id.
func (t *Table) Get(id int32) *State { return (*t.states.Load())[id] }

// States returns the interned states in creation order: a snapshot that
// concurrent interns may extend but never mutate. Callers must not modify
// it.
func (t *Table) States() []*State { return *t.states.Load() }

// SetBudget bounds the number of states InternBudget may create (0 means
// unlimited). Set it before the table is shared across goroutines; the
// on-demand engine wires Options.MaxStates through here at construction.
func (t *Table) SetBudget(max int) { t.max = max }

// Intern returns the unique state with the given vectors, creating it if
// needed; created reports whether a new state was added. Intern copies
// the vectors when it creates a state and never retains the caller's
// slices, so they may be scratch reused across calls.
func (t *Table) Intern(delta []grammar.Cost, rule []int32, m *metrics.Counters) (s *State, created bool) {
	s, created, _ = t.intern(delta, rule, m, 0)
	return s, created
}

// InternBudget is Intern honoring the table's configured state budget:
// a lookup that hits an existing state always succeeds (even at the cap),
// but creating a state past the budget fails with an error wrapping
// ErrStateBudget and leaves the table unchanged — growth is bounded by
// exactly the budget, not budget+misses.
func (t *Table) InternBudget(delta []grammar.Cost, rule []int32, m *metrics.Counters) (*State, bool, error) {
	return t.intern(delta, rule, m, t.max)
}

func (t *Table) intern(delta []grammar.Cost, rule []int32, m *metrics.Counters, max int) (*State, bool, error) {
	h := vecHash(delta, rule)
	t.mu.Lock()
	cur := *t.states.Load()
	newest, ok := t.index[h]
	if ok {
		for id := newest; id >= 0; id = t.chain[id] {
			if s := cur[id]; slices.Equal(s.Delta, delta) && slices.Equal(s.Rule, rule) {
				t.mu.Unlock()
				return s, false, nil
			}
		}
	} else {
		newest = -1
	}
	if max > 0 && len(cur) >= max {
		t.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %d states materialized, budget %d", ErrStateBudget, len(cur), max)
	}
	s := &State{ID: int32(len(cur)), Delta: slices.Clone(delta), Rule: slices.Clone(rule)}
	next := append(cur, s)
	t.chain = append(t.chain, newest)
	t.index[h] = s.ID
	t.states.Store(&next)
	// Charged at 8 bytes per nonterminal plus 16 beyond the state itself:
	// the per-state figure every table-size report (E1/E8 table bytes, PF
	// table-bytes, the registry's byte budget) is calibrated on. The
	// charge is kept so those reports stay comparable, not because the
	// index allocates those bytes.
	t.bytes.Add(int64(s.MemoryBytes() + 8*len(delta) + 16))
	t.mu.Unlock()
	m.CountState()
	return s, true, nil
}

// MemoryBytes estimates the footprint of all states: each state's own
// bytes plus a fixed per-state charge that keeps table-size reports
// comparable across versions (see intern). The figure is maintained at
// intern time, so the call is O(1) and safe to poll concurrently with
// interning.
func (t *Table) MemoryBytes() int { return int(t.bytes.Load()) }

// vecSeed keys the vector hash; states are never hashed across processes.
var vecSeed = maphash.MakeSeed()

// vecHash hashes a state's vectors over their bytes, in place. Rules are
// hashed with the costs: two labelings with equal costs but different
// optimal rules must be different states because the reducer reads rules
// out of states.
func vecHash(delta []grammar.Cost, rule []int32) uint64 {
	var h maphash.Hash
	h.SetSeed(vecSeed)
	h.Write(int32Bytes(delta))
	h.Write(int32Bytes(rule))
	return h.Sum64()
}

// int32Bytes views a slice of 32-bit values as its bytes, without a copy.
func int32Bytes[T ~int32](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// Labeling is the per-node state assignment the on-demand engine
// (internal/core) produces: a dense vector of state ids plus the
// state-table snapshot that resolves them. Keeping ids instead of
// pointers halves the per-node footprint and lets the engine reuse one
// labeling's buffers across calls — it hands labelings out of an internal
// free list (see reduce.LabelingRecycler).
//
// Ownership: a labeling returned by an engine belongs to the caller until
// it is released back via the engine's ReleaseLabeling, after which it
// must not be touched. Labelings that are never released are simply
// garbage collected.
type Labeling struct {
	// IDs[i] is the state id assigned to the node with index i.
	IDs []int32
	// states resolves ids: an append-only table snapshot taken after the
	// last id was assigned, so it covers every id in IDs.
	states []*State
}

// Reuse resizes the labeling to n nodes, reusing the id buffer when its
// capacity allows, and returns the id slice to fill.
func (l *Labeling) Reuse(n int) []int32 {
	if cap(l.IDs) < n {
		l.IDs = make([]int32, n)
	} else {
		l.IDs = l.IDs[:n]
	}
	return l.IDs
}

// Bind snapshots t's state list so RuleAt/StateAt can resolve ids. Call it
// after every id in the labeling has been assigned: the list is
// append-only, so the snapshot covers all of them.
func (l *Labeling) Bind(t *Table) { l.states = t.States() }

// RuleAt returns the optimal rule for (n, nt), or -1: the lookup the
// reducer drives.
func (l *Labeling) RuleAt(n *ir.Node, nt grammar.NT) int32 {
	return l.states[l.IDs[n.Index]].Rule[nt]
}

// StateAt returns the state assigned to n.
func (l *Labeling) StateAt(n *ir.Node) *State { return l.states[l.IDs[n.Index]] }

// StateIDAt returns the state id assigned to n.
func (l *Labeling) StateIDAt(n *ir.Node) int32 { return l.IDs[n.Index] }
