package automaton

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// Static is an offline-generated tree-parsing automaton, the burg
// equivalent and Baseline 2 of the reproduction: all states and transitions
// are computed ahead of time, labeling is pure table lookup, and dynamic
// costs are impossible.
//
// Table compression follows Chase/Proebsting index maps: child states are
// projected, per operator and child position, onto "representer" classes
// (only the costs of the nonterminals that the operator's rules actually
// use at that position matter), and transition tables are indexed by
// representer ids instead of state ids.
//
// Static implements reduce.Labeler. All tables are immutable after
// Generate, so one automaton may label from any number of goroutines
// concurrently; only SetMetrics must not race with labeling.
type Static struct {
	g      *grammar.Grammar
	table  *Table
	states []*State // table snapshot, frozen at generation time
	m      *metrics.Counters
	labels freelist.List[Labeling] // recycled across LabelStates calls

	leaf []int32 // [op] -> state id for arity-0 ops; -1 otherwise

	// mu[op][p][stateID] -> representer id at child position p of op.
	mu [][2][]int32
	// nreps[op][p] is the number of representer classes at (op, p).
	nreps [][2]int32
	// t1[op][rep0] -> state id (unary ops).
	t1 [][]int32
	// t2[op][rep0*nreps[op][1]+rep1] -> state id (binary ops).
	t2 [][]int32

	// Expanded direct-lookup tables (see Expand): dir1[op][kidState] and
	// dir2[op][l*numStates+r] hold state ids indexed by child state ids
	// directly, removing the two projection loads per node that the
	// Chase-compressed form costs. nil until Expand; labeling uses them
	// when present.
	dir1 [][]int32
	dir2 [][]int32

	// Gen holds the statistics of the closure Generate computed (zero
	// for an automaton built from loaded tables).
	Gen GenStats
}

// Expand decompresses the transition tables into direct state-id-indexed
// arrays — the classic space-for-time move: a binary transition becomes
// one flat row-major load instead of two representer projections plus a
// compressed lookup (the on-demand engine's class grids keep the
// projections). Memory grows from O(reps²) to O(states²) per binary
// operator, which MemoryBytes reports honestly.
//
// The static engine kind expands at construction: a long-lived selector
// trades kilobytes for the fastest possible per-node lookup. Generate
// keeps the compressed form — its footprint is the paper's table-size
// figure. Call before the automaton is shared; not concurrency-safe.
//
// Expansion is bounded by ExpandMaxBytes: past it the quadratic grids stop
// being a kilobyte trade (and an untrusted blob header must not be able
// to demand them), so huge automata keep labeling through the compressed
// tables.
func (a *Static) Expand() {
	if a.dir1 != nil {
		return
	}
	a.dir1, a.dir2 = ExpandTables(a.g, len(a.states), &TableSet{NReps: a.nreps, Mu: a.mu, T1: a.t1, T2: a.t2})
}

// GenStats summarizes offline generation.
type GenStats struct {
	States              int
	Representers        int
	TransitionsComputed int
	TableBytes          int
}

// StaticConfig tunes offline generation.
type StaticConfig struct {
	// DeltaCap bounds relative costs (DefaultDeltaCap if zero).
	DeltaCap grammar.Cost
	// MaxStates aborts generation when exceeded (1<<20 if zero); a safety
	// valve against pathological grammars. An exceeded bound fails with a
	// *TruncatedError carrying the closure diagnostics.
	MaxStates int
	// Metrics receives generation-time event counts (may be nil).
	Metrics *metrics.Counters
}

// ExpandMaxBytes bounds the direct arrays one table set may expand into,
// summed over all operators: each binary operator's grid is states² × 4
// bytes, so without a total bound a blob claiming a few thousand states
// for a grammar with dozens of binary operators could demand gigabytes.
// 16 MiB is over 30× the largest real set (x86.fixed expands to
// 436,944 bytes) and keeps every single grid at most 2²² cells. Larger
// table sets label through the compressed representer tables instead. The
// same bound, through MaxGridIndex, caps the classes the on-demand
// engine's class grids index, so its int32 c0*cols+c1 index cannot
// overflow either.
const ExpandMaxBytes = 16 << 20

// TruncatedError reports a closure that was pruned by StaticConfig
// MaxStates before reaching its fixpoint: the grammar's state space (or
// the configured budget) is too small to tabulate offline. It carries the
// diagnostics the ahead-of-time generator's -stats report prints, so an
// operator can see how far generation got before the cap.
type TruncatedError struct {
	Grammar string
	// MaxStates is the configured bound; States is how many states had
	// been interned when it tripped (States > MaxStates by exactly the
	// state whose creation overflowed).
	MaxStates int
	States    int
	// Transitions counts transition computations completed before the cut;
	// PendingWork is the representer work-queue length at the cut — the
	// closure work that was abandoned.
	Transitions int
	PendingWork int
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("automaton: grammar %s exceeds %d states (closure pruned at %d states, %d transitions computed, %d work items pending); the grammar lacks the chain-rule structure that bounds relative costs",
		e.Grammar, e.MaxStates, e.States, e.Transitions, e.PendingWork)
}

// Generate builds the full automaton for g: the closure of
// GenerateTables adopted by NewStaticFromTables, kept compressed. It fails
// for grammars with dynamic-cost rules — precisely the limitation of
// offline tree-parsing automata that motivates on-demand construction;
// strip the rules first (grammar.StripDynamic) to tabulate the fixed-cost
// subset.
func Generate(g *grammar.Grammar, cfg StaticConfig) (*Static, error) {
	if err := errDynamic(g); err != nil {
		return nil, err
	}
	ts, st, err := GenerateTables(g, cfg)
	if err != nil {
		return nil, err
	}
	a, err := NewStaticFromTables(g, ts)
	if err != nil {
		return nil, err
	}
	a.m = cfg.Metrics
	a.Gen = st
	return a, nil
}

// errDynamic is the static automaton's refusal of grammars with
// dynamic-cost rules (nil for a fixed-cost grammar).
func errDynamic(g *grammar.Grammar) error {
	if !g.HasAnyDynRules() {
		return nil
	}
	return fmt.Errorf("automaton: grammar %s has dynamic-cost rules; offline generation is impossible (use the on-demand engine or StripDynamic)", g.Name)
}

// GenerateTables computes the closure of g's tree-parsing automaton over
// its fixed operators — operators without dynamic-cost rules — and
// returns it as a TableSet. For a fixed-cost grammar that is the whole
// automaton. For a grammar with dynamic rules it is the hybrid kind's
// seed (core.NewSeeded): dynamic operators are seeded, projected and transitioned
// nowhere, and carry zero representer classes, all-zero projection rows
// (the wire format writes one row per child position unconditionally)
// and empty transition tables; their states are constructed on demand at
// serve time.
//
// The closure keeps the full grammar (contrast StripDynamic, which
// renumbers rules and drops orphaned helpers, so stripped-grammar states
// are NOT states of the full grammar). Every state it interns is
// therefore a genuine full-grammar state: an on-demand engine seeded
// with them (core.NewSeeded) would construct exactly these states under
// traffic, so seeded and constructed states share one hash-consed id
// space. The per-position representer
// projection stays sound because chain rules can never carry dynamic
// costs (the grammar normalizer rejects them), so Compute for a fixed
// operator reads exactly the kid deltas its base rules name.
//
// Fails with ErrNoFixedClosure when every leaf operator carries dynamic
// rules, and with a *TruncatedError when cfg.MaxStates prunes the
// closure.
func GenerateTables(g *grammar.Grammar, cfg StaticConfig) (*TableSet, GenStats, error) {
	seedable := false
	for op := 0; op < g.NumOps(); op++ {
		if g.Ops[op].Arity == 0 && !g.HasDynRules(grammar.OpID(op)) {
			seedable = true
			break
		}
	}
	if !seedable {
		return nil, GenStats{}, fmt.Errorf("grammar %s: %w", g.Name, ErrNoFixedClosure)
	}
	if cfg.DeltaCap == 0 {
		cfg.DeltaCap = DefaultDeltaCap
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 1 << 20
	}
	gen := newGenerator(g, cfg)
	if err := gen.run(); err != nil {
		return nil, GenStats{}, err
	}
	ts, st := gen.finish()
	return ts, st, nil
}

// ---------------------------------------------------------------------------
// Generation

// workItem asks for every transition of op that pairs class rep at child
// position pos with the classes at the other position.
type workItem struct {
	op  grammar.OpID
	pos int
	rep int32
}

type generator struct {
	g     *grammar.Grammar
	cfg   StaticConfig
	table *Table
	leaf  []int32
	// cls holds the class spaces of the fixed operators' child positions;
	// mu[op][p] is the projection row of (op, p), one class per state.
	cls *Classes
	mu  [][2][]int32
	// rep and fresh are addState's per-space scratch: the new state's
	// class in each space, and whether it created that class.
	rep   []int32
	fresh []bool
	// trans[op] collects transitions during generation, keyed by
	// rep0<<32|rep1 (rep1=0 for unary ops).
	trans []map[uint64]int32
	queue []workItem
	nTr   int
	// delta and rule are Compute's scratch; the table copies a state's
	// vectors when it is born.
	delta []grammar.Cost
	rule  []int32
}

func newGenerator(g *grammar.Grammar, cfg StaticConfig) *generator {
	fixed := func(op grammar.OpID) bool { return !g.HasDynRules(op) }
	gen := &generator{
		g:     g,
		cfg:   cfg,
		table: NewTable(g),
		leaf:  make([]int32, g.NumOps()),
		cls:   NewClasses(g, fixed),
		mu:    make([][2][]int32, g.NumOps()),
		trans: make([]map[uint64]int32, g.NumOps()),
		delta: make([]grammar.Cost, g.NumNonterms()),
		rule:  make([]int32, g.NumNonterms()),
	}
	gen.rep = make([]int32, len(gen.cls.Spaces))
	gen.fresh = make([]bool, len(gen.cls.Spaces))
	for op := 0; op < g.NumOps(); op++ {
		gen.leaf[op] = -1
		if g.Ops[op].Arity > 0 && fixed(grammar.OpID(op)) {
			gen.trans[op] = map[uint64]int32{}
		}
	}
	return gen
}

// space returns the class space of child position p of op.
func (gen *generator) space(op grammar.OpID, p int) *ClassSpace {
	return gen.cls.Spaces[gen.cls.Of[op][p]]
}

func (gen *generator) run() error {
	// Seed with the leaf-operator states.
	for op := 0; op < gen.g.NumOps(); op++ {
		// A dynamic operator's state depends on evaluated costs, so no
		// single offline entry could be right: it is left to serve time.
		if gen.g.Ops[op].Arity != 0 || gen.g.HasDynRules(grammar.OpID(op)) {
			continue
		}
		Compute(gen.g, grammar.OpID(op), nil, nil, gen.cfg.DeltaCap, gen.cfg.Metrics, gen.delta, gen.rule)
		s, created := gen.table.Intern(gen.delta, gen.rule, gen.cfg.Metrics)
		gen.leaf[op] = s.ID
		if created {
			gen.addState(s)
		}
	}
	for len(gen.queue) > 0 {
		item := gen.queue[len(gen.queue)-1]
		gen.queue = gen.queue[:len(gen.queue)-1]
		if err := gen.expand(item); err != nil {
			return err
		}
	}
	return nil
}

// addState classifies a newly interned state in every class space and
// queues the transition computations its new classes require, position
// by position in operator order.
func (gen *generator) addState(s *State) {
	for sp, cs := range gen.cls.Spaces {
		gen.rep[sp], gen.fresh[sp] = cs.Classify(s)
	}
	for op, of := range gen.cls.Of {
		for p := 0; p < gen.g.Ops[op].Arity && of[p] >= 0; p++ {
			gen.mu[op][p] = append(gen.mu[op][p], gen.rep[of[p]])
			if gen.fresh[of[p]] {
				gen.queue = append(gen.queue, workItem{grammar.OpID(op), p, gen.rep[of[p]]})
			}
		}
	}
}

// expand computes all transitions that involve a new representer class.
func (gen *generator) expand(item workItem) error {
	g := gen.g
	op := item.op
	arity := g.Ops[op].Arity
	if arity == 1 {
		return gen.transition(op, item.rep, 0)
	}
	// Binary: pair the new class with every class at the other position.
	if item.pos == 0 {
		for r1 := int32(0); r1 < int32(gen.space(op, 1).Len()); r1++ {
			if err := gen.transition(op, item.rep, r1); err != nil {
				return err
			}
		}
	} else {
		for r0 := int32(0); r0 < int32(gen.space(op, 0).Len()); r0++ {
			if err := gen.transition(op, r0, item.rep); err != nil {
				return err
			}
		}
	}
	return nil
}

func (gen *generator) transition(op grammar.OpID, rep0, rep1 int32) error {
	key := uint64(rep0)<<32 | uint64(uint32(rep1))
	if _, done := gen.trans[op][key]; done {
		return nil
	}
	g := gen.g
	var kids []*State
	if g.Ops[op].Arity == 1 {
		kids = []*State{gen.space(op, 0).Sample(rep0)}
	} else {
		kids = []*State{gen.space(op, 0).Sample(rep0), gen.space(op, 1).Sample(rep1)}
	}
	Compute(g, op, kids, nil, gen.cfg.DeltaCap, gen.cfg.Metrics, gen.delta, gen.rule)
	s, created := gen.table.Intern(gen.delta, gen.rule, gen.cfg.Metrics)
	gen.trans[op][key] = s.ID
	gen.nTr++
	gen.cfg.Metrics.CountTransition()
	if created {
		if gen.table.Len() > gen.cfg.MaxStates {
			return &TruncatedError{
				Grammar:     g.Name,
				MaxStates:   gen.cfg.MaxStates,
				States:      gen.table.Len(),
				Transitions: gen.nTr,
				PendingWork: len(gen.queue),
			}
		}
		gen.addState(s)
	}
	return nil
}

// finish flattens the generation structures into a TableSet (see
// GenerateTables for the dynamic-operator placeholder convention).
func (gen *generator) finish() (*TableSet, GenStats) {
	g := gen.g
	states := gen.table.States()
	numNT := g.NumNonterms()
	ts := &TableSet{
		NumNT:  numNT,
		Deltas: make([]grammar.Cost, 0, len(states)*numNT),
		Rules:  make([]int32, 0, len(states)*numNT),
		Leaf:   gen.leaf,
		NReps:  make([][2]int32, g.NumOps()),
		Mu:     make([][2][]int32, g.NumOps()),
		T1:     make([][]int32, g.NumOps()),
		T2:     make([][]int32, g.NumOps()),
	}
	for _, s := range states {
		ts.Deltas = append(ts.Deltas, s.Delta...)
		ts.Rules = append(ts.Rules, s.Rule...)
	}
	totalReps := 0
	tableBytes := gen.table.MemoryBytes()
	for op := 0; op < g.NumOps(); op++ {
		arity := g.Ops[op].Arity
		if arity == 0 {
			continue
		}
		if gen.cls.Of[op][0] < 0 {
			// Dynamic operator: zero classes, placeholder projection rows
			// sized for the wire format's unconditional per-position row.
			for p := 0; p < arity; p++ {
				ts.Mu[op][p] = make([]int32, len(states))
			}
			continue
		}
		for p := 0; p < arity; p++ {
			n := gen.space(grammar.OpID(op), p).Len()
			ts.Mu[op][p] = gen.mu[op][p]
			ts.NReps[op][p] = int32(n)
			totalReps += n
			tableBytes += 4 * len(gen.mu[op][p])
		}
		if arity == 1 {
			t := make([]int32, ts.NReps[op][0])
			for key, sid := range gen.trans[op] {
				t[int32(key>>32)] = sid
			}
			ts.T1[op] = t
			tableBytes += 4 * len(t)
		} else {
			n1 := ts.NReps[op][1]
			t := make([]int32, ts.NReps[op][0]*n1)
			for key, sid := range gen.trans[op] {
				t[int32(key>>32)*n1+int32(uint32(key))] = sid
			}
			ts.T2[op] = t
			tableBytes += 4 * len(t)
		}
	}
	return ts, GenStats{
		States:              len(states),
		Representers:        totalReps,
		TransitionsComputed: gen.nTr,
		TableBytes:          tableBytes,
	}
}

// ---------------------------------------------------------------------------
// Labeling with the generated automaton

// Grammar returns the automaton's grammar.
func (a *Static) Grammar() *grammar.Grammar { return a.g }

// Table returns the automaton's state table.
func (a *Static) Table() *Table { return a.table }

// SetMetrics swaps the automaton's labeling counter sink (nil disables
// instrumenting). Not safe to call concurrently with labeling.
func (a *Static) SetMetrics(m *metrics.Counters) { a.m = m }

// NumStates returns the number of states.
func (a *Static) NumStates() int { return a.table.Len() }

// NumTransitions returns the number of (compressed) transition entries.
func (a *Static) NumTransitions() int {
	n := 0
	for op := range a.t1 {
		n += len(a.t1[op]) + len(a.t2[op])
	}
	return n
}

// MemoryBytes estimates the automaton's total table footprint: states,
// index maps, transition tables, and — when expanded — the direct-lookup
// arrays.
func (a *Static) MemoryBytes() int {
	b := a.table.MemoryBytes()
	for op := range a.mu {
		b += 4 * (len(a.mu[op][0]) + len(a.mu[op][1]))
		b += 4 * (len(a.t1[op]) + len(a.t2[op]))
	}
	for op := range a.dir1 {
		b += 4 * (len(a.dir1[op]) + len(a.dir2[op]))
	}
	return b
}

// LabelStates assigns a state to every node of f by pure table lookup: the
// offline automaton's fast path. Events are recorded against the counters
// configured at generation (StaticConfig.Metrics) or via SetMetrics.
// The labeling comes from the automaton's free list; callers that want its
// buffers recycled hand it back with ReleaseLabeling when done.
func (a *Static) LabelStates(f *ir.Forest) *Labeling {
	return a.LabelStatesMetered(f, nil)
}

// LabelStatesMetered is LabelStates with per-call counter attribution:
// events are counted into m instead of the automaton's configured sink
// (nil falls back to it). The whole pass works on dense state ids — the
// representer projections are already id-indexed, so no state pointer is
// touched until the reducer resolves one.
func (a *Static) LabelStatesMetered(f *ir.Forest, m *metrics.Counters) *Labeling {
	if m == nil {
		m = a.m
	}
	lab := a.labels.Get()
	ids := lab.Reuse(len(f.Nodes))
	if a.dir1 != nil {
		// Expanded direct tables: one flat load per node, no projections.
		// Index arithmetic is int: an int32 product would wrap for state
		// counts past √2³¹ (ExpandMaxBytes keeps us far below, but the
		// index math must not be what relies on that).
		stride := len(a.states)
		for i, n := range f.Nodes {
			m.CountNode()
			m.CountProbe(false)
			op := n.Op
			switch len(n.Kids) {
			case 0:
				ids[i] = a.leaf[op]
			case 1:
				ids[i] = a.dir1[op][ids[n.Kids[0].Index]]
			default:
				ids[i] = a.dir2[op][int(ids[n.Kids[0].Index])*stride+int(ids[n.Kids[1].Index])]
			}
		}
		lab.BindStates(a.states)
		return lab
	}
	for i, n := range f.Nodes {
		m.CountNode()
		m.CountProbe(false)
		op := n.Op
		switch len(n.Kids) {
		case 0:
			ids[i] = a.leaf[op]
		case 1:
			rep := a.mu[op][0][ids[n.Kids[0].Index]]
			ids[i] = a.t1[op][rep]
		default:
			r0 := a.mu[op][0][ids[n.Kids[0].Index]]
			r1 := a.mu[op][1][ids[n.Kids[1].Index]]
			ids[i] = a.t2[op][r0*a.nreps[op][1]+r1]
		}
	}
	lab.BindStates(a.states)
	return lab
}

// ReleaseLabeling implements reduce.LabelingRecycler: it returns a
// labeling obtained from this automaton to its free list. The labeling
// must not be used afterwards.
func (a *Static) ReleaseLabeling(lab reduce.Labeling) {
	if l, ok := lab.(*Labeling); ok && l != nil {
		a.labels.Put(l)
	}
}

// Label implements reduce.Labeler.
func (a *Static) Label(f *ir.Forest) reduce.Labeling { return a.LabelStates(f) }

// LabelMetered implements reduce.Labeler; see LabelStatesMetered.
func (a *Static) LabelMetered(f *ir.Forest, m *metrics.Counters) reduce.Labeling {
	return a.LabelStatesMetered(f, m)
}
