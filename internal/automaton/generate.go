package automaton

import (
	"fmt"

	"repro/internal/grammar"
	"repro/internal/metrics"
)

// GenStats summarizes offline generation: the closure's states, its
// representer classes summed over the fixed operators' child positions,
// the transitions it computed (one per tabulated class-pair cell), and
// TableBytes, the compact footprint — the states plus 4 bytes per
// projection entry and transition cell of the fixed operators, the
// paper's table-size figure.
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

// ExpandMaxBytes bounds the direct arrays an index range may size,
// summed over a grammar's fixed operators: 4 bytes per index for each
// unary operator and 4 per index pair for each binary one. Through
// MaxGridIndex it caps the classes the on-demand engine's class grids
// index — classes past it take the hash path — so a blob claiming
// thousands of classes cannot demand gigabytes of grids, and the
// engine's int32 c0*cols+c1 index cannot overflow. 16 MiB keeps every
// single grid at most 2²² cells.
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

// GenerateTables computes the closure of g's tree-parsing automaton over
// its fixed operators — operators without dynamic-cost rules — and
// returns it as a TableSet, which core.NewSeeded serves. For a fixed-cost
// grammar that is the whole automaton, the static kind's seed. For a
// grammar with dynamic rules it is the hybrid kind's seed: dynamic
// operators are seeded, projected and transitioned nowhere, and carry
// zero representer classes, all-zero projection rows (the wire format
// writes one row per child position unconditionally) and empty
// transition tables; their states are constructed on demand at serve
// time.
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
