// Package core implements the paper's contribution: on-demand (lazy)
// tree-parsing automata for instruction selection, after Ertl, Casey and
// Gregg, "Fast and Flexible Instruction Selection with On-Demand
// Tree-Parsing Automata" (PLDI 2006).
//
// The automaton starts empty. When the labeler meets an (operator,
// child-state tuple, dynamic-cost signature) combination for the first
// time, it constructs the resulting state by running the iburg-style
// dynamic-programming step once (automaton.Compute), hash-conses the state
// and memoizes the transition. Every later occurrence takes the fast path:
// evaluate the operator's dynamic costs (none, for most operators) and do
// one table lookup.
//
// Operators without dynamic rules get direct transition tables indexed by
// the children's representer classes (a direct lookup, like a static
// automaton's); operators with dynamic rules go through a hash table whose
// key includes the evaluated dynamic-cost signature — the structure the
// successor literature describes as "computing all the dynamic costs and a
// hash table lookup per node". Because states are constructed at selection
// time, dynamic costs work, which no offline automaton can offer.
//
// # Table layout
//
// Transitions are keyed by representer class, not by child state id (the
// Chase/Proebsting projection, automaton.ClassSpace): a transition depends
// on a child only through the costs of the nonterminals the operator's
// rules read at that child's position, rebased on their minimum, so every
// state with the same such costs reaches the same state there. Each state
// is classified at birth in every class space — one per distinct set of
// relevant nonterminals, shared by the positions that read the same set —
// into one row of a flat class matrix (2 bytes per state and space; a row
// is written before the published count covers it and never changes
// after). One Compute then serves a whole class pair, and a table is as
// large as the classes it has seen, not the states.
//
// A fixed unary or binary operator's transitions live in a flat int32 grid
// over classes, the `.isel` T1/T2 shape: cell [c0*cols+c1] holds the
// state id reached from child classes c0 and c1 (c1 = 0 for unary
// operators), -1 until constructed. A warm lookup is the grid pointer, two
// independent class loads from the matrix and one cell. State ids index
// automaton.Table, whose state list is append-only, so an id read from any
// published cell always resolves.
//
// Grids are bounded by class count: a class numbered past
// automaton.MaxGridIndex(g) — which keeps every grid together within
// automaton.ExpandMaxBytes — is stored in the matrix as noClass, and its
// transitions go to the operator's open table keyed by class instead, the
// path ForceHash uses for all of them. Pathological grammars with
// thousands of classes at one position therefore stay bounded under
// traffic.
//
// # Seeding
//
// NewSeeded serves the table-backed kinds: the same engine, started from
// an ahead-of-time closure (automaton.GenerateTables, or a `.isel` blob)
// instead of empty. On a fixed-cost grammar the closure is the whole
// automaton and the engine never constructs — the burg-style static kind;
// on a grammar with dynamic rules it covers the fixed operators — the
// hybrid kind. It interns copies of the table set's states with their
// ids and classifies them, which numbers every class space's classes in
// the order the generator numbered them; a table set whose projection rows
// (Mu) disagree with that fails with ErrClassMismatch. The fixed
// operators' T1 and T2 tables then become the grids as they are, so
// fixed-operator traffic hits from the first request while dynamic
// operators construct on demand as usual. The closure is a fixpoint over
// the fixed operators, so a seeded grid never misses on seeded children;
// children born on demand (under a dynamic subtree) that open new classes
// extend the grids like any other miss.
//
// # Concurrency
//
// One warm engine can serve many goroutines — the compilation-server
// scenario the paper's JIT setting generalizes to. The design keeps the
// warm fast path lock-free and pushes all synchronization onto the
// construct slow path:
//
//   - Leaf cells and class grids are published copy-on-write through one
//     atomic pointer per operator; cells are written and read with atomic
//     int32 operations. Grids grow only under the operator's slow-path
//     mutex, and a grown grid is fully populated before its pointer is
//     released.
//   - Classification runs at state birth under one engine-wide mutex
//     (classMu), taken after the operator's, and publishes the grown class
//     matrix before the constructing call returns the state's id, so any
//     id a labeling holds is already classified. Matrix rows never change
//     once published, so readers load them plainly.
//   - The construct slow path is sharded per operator: misses on
//     different operators construct concurrently (the grids and
//     open-addressing tables they write are per-op; the shared state table
//     synchronizes interning internally). Cold-start contention therefore
//     scales with the operator mix instead of serializing on one
//     engine-global lock.
//   - The hash-consing state table (automaton.Table) serializes interning
//     internally; see its documentation.
//   - The hash transition path (dynamic operators, ForceHash, classes
//     past the grid bound) uses one open-addressing table per operator (see openTab): flat []uint64 key
//     words and []int32 id slots, linear probing, a lock-free hit path
//     with no interface conversions or boxed values, misses serialized on
//     the operator's mutex. Keys — the child classes plus the packed
//     dynamic-cost signature — are built in stack arrays (signatures of up
//     to maxStackDyn rules) and copied into the table only when a miss
//     actually inserts them. Growth rehashes into a double-size table
//     published through the operator's atomic pointer once fully
//     populated.
//   - Per-call scratch (the construction vectors Compute fills, and the
//     key and dynamic costs of wider signatures) comes from a free list
//     owned by the engine (internal/freelist), so concurrent labelers never
//     share buffers. A labeling call takes one scratch at its first
//     construction (or signature too wide for the stack) and returns it at
//     the end — never a lock or a list item per node, and none at all on a
//     warm call of the corpus machines. A panicking user dynamic-cost
//     function loses that call's scratch to the GC, which is harmless (the
//     panic itself propagates to the caller's containment boundary — the
//     compilation server recovers it per job). Labelings come from a
//     second free list and flow back via ReleaseLabeling, which is what
//     makes the warm path allocation-free end to end. The lists are plain
//     fields, not sync.Pools, so a dropped engine and everything it
//     recycles die at the next GC.
//
// Label and Save may be called concurrently; SetMetrics and Load must be
// serialized against labeling (Load additionally requires a fresh
// engine). Metrics counters are themselves race-safe (atomic adds),
// so one Counters sink can instrument a parallel session. For per-caller
// accounting — the compilation server attributes work to clients —
// LabelStatesMetered counts one call's events into a caller-supplied
// sink instead of the engine's own.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/freelist"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// Config tunes the on-demand engine.
type Config struct {
	// DeltaCap bounds relative costs in states (automaton.DefaultDeltaCap
	// if zero).
	DeltaCap grammar.Cost
	// Metrics receives event counts (may be nil).
	Metrics *metrics.Counters
	// ForceHash disables the class grids and routes every transition
	// through the hash tables; used by the table-layout ablation.
	ForceHash bool
	// MaxStates bounds the number of states the engine may materialize
	// (0 = unlimited). Construction past the budget aborts the labeling
	// call with an error wrapping ErrStateBudget — the cap policy for
	// pathological grammars whose state space would otherwise grow without
	// bound in a long-lived server. Transitions between already-interned
	// states keep working at the cap.
	MaxStates int
}

// ErrStateBudget re-exports the typed state-budget error for callers that
// configure Config.MaxStates; match with errors.Is.
var ErrStateBudget = automaton.ErrStateBudget

// ErrClassMismatch is the typed error NewSeeded fails with when a table
// set's projection rows (Mu) are not the projection the engine computes:
// a class that holds states the projection separates (whose transitions
// would then be wrong for some of them), one projection class split over
// several representers, or classes numbered out of order. Match with
// errors.Is.
var ErrClassMismatch = errors.New("core: table set's representer classes disagree with the projection")

// noClass marks, in the class matrix, a class numbered past the grid
// bound; its transitions take the hash path.
const noClass = 0xFFFF

// classSlack is the least headroom, in states, the class matrix grows by
// (a quarter of its states when that is more), so a run of births does
// not copy it once per state.
const classSlack = 16

// gridSlack is the headroom, in classes, a grid grows by.
const gridSlack = 2

// maxStackDyn is the widest dynamic-cost signature a hash-path probe
// builds on the stack (x86's widest operator has 11 dynamic rules); wider
// ones use the call's scratch.
const maxStackDyn = 12

// grid is the class-indexed transition table of a fixed unary or binary
// operator: cells[c0*cols+c1] holds the state id reached from child
// classes c0 and c1 (cols = 1 and c1 = 0 for unary operators), -1 until
// constructed.
type grid struct {
	rows, cols int32
	cells      []int32
}

// opTab is one operator's lookup state, laid out together so a warm
// lookup touches one cache line and one bounds check.
type opTab struct {
	// grid is a fixed operator's class grid.
	grid atomic.Pointer[grid]
	// dyn is the dynamic-rule (and ForceHash, and past-the-bound) path: an
	// open-addressing table keyed by the child classes plus the packed
	// dynamic-cost signature, whose slot values are state ids; nil until
	// the operator's first miss there.
	dyn atomic.Pointer[openTab]
	// of[p] is the class space of child position p.
	of [2]int32
	// leaf is a leaf operator's state id, -1 until constructed.
	leaf atomic.Int32
	// nDyn is the number of the operator's dynamic rules.
	nDyn int32
	// hashed routes the operator through the hash path: it has dynamic
	// rules, or Config.ForceHash is set.
	hashed bool
}

// Engine is an on-demand tree-parsing automaton. It persists across
// Label calls — exactly the JIT scenario the paper targets: the automaton
// warms up as the compiler runs, and per-node labeling cost converges to a
// table lookup. Engines are safe for concurrent labeling (see the package
// documentation for the contract). Engine implements reduce.Labeler.
type Engine struct {
	g        *grammar.Grammar
	dynFns   []grammar.DynFunc
	table    *automaton.Table
	deltaCap grammar.Cost
	m        *metrics.Counters
	// maxClasses bounds the classes a grid indexes; see the package
	// documentation.
	maxClasses int32

	// spaces are the class spaces, guarded by classMu. cls and clsN
	// publish the class matrix (see classMatrix): row id of *cls, nsp
	// entries wide, holds state id's class in each space (noClass past the
	// grid bound), for every id below clsN; rows below clsN never change.
	// classBytes accounts the spaces' per-class entries for MemoryBytes.
	spaces     []*automaton.ClassSpace
	nsp        int
	classMu    sync.Mutex
	cls        atomic.Pointer[[]uint16]
	clsN       atomic.Int32
	classBytes atomic.Int64

	// mus serializes the construct slow path per operator: state
	// construction, grid growth and hash insertion. Misses on different
	// operators proceed concurrently; the warm fast path never locks. Save
	// and Load lock every shard (lockAll) for a consistent whole-automaton
	// snapshot.
	mus []sync.Mutex

	// ops[op] holds op's tables.
	ops []opTab

	transitions atomic.Int64
	scratch     freelist.List[scratch]
	labels      freelist.List[automaton.Labeling]
}

// scratch holds the per-call buffers of the slow paths, taken from the
// engine's free list at most once per labeling call so concurrent
// labelers never share them. delta and rule are the construction vectors
// Compute fills; the state table copies them only when a state is born.
// dyn holds a constructing signature's dynamic costs, and key the probe
// key of signatures too wide for the stack; both are sized for the
// grammar's widest signature (nil when it needs none).
type scratch struct {
	delta []grammar.Cost
	rule  []int32
	dyn   []grammar.Cost
	key   []uint64
}

// New creates an empty on-demand automaton for g. env binds the grammar's
// dynamic-cost function names (nil is fine for grammars without dynamic
// rules).
func New(g *grammar.Grammar, env grammar.DynEnv, cfg Config) (*Engine, error) {
	dyn, err := env.Bind(g)
	if err != nil {
		return nil, err
	}
	if cfg.DeltaCap == 0 {
		cfg.DeltaCap = automaton.DefaultDeltaCap
	}
	table := automaton.NewTable(g)
	table.SetBudget(cfg.MaxStates)
	classes := automaton.NewClasses(g, nil)
	e := &Engine{
		g:          g,
		dynFns:     dyn,
		table:      table,
		deltaCap:   cfg.DeltaCap,
		m:          cfg.Metrics,
		maxClasses: int32(min(automaton.MaxGridIndex(g), noClass)),
		spaces:     classes.Spaces,
		nsp:        len(classes.Spaces),
		mus:        make([]sync.Mutex, g.NumOps()),
		ops:        make([]opTab, g.NumOps()),
	}
	e.cls.Store(new([]uint16))
	for op := range e.ops {
		o := &e.ops[op]
		o.leaf.Store(-1) // 0 is a valid state id; -1 means "no transition yet"
		o.nDyn = int32(len(g.DynRules(grammar.OpID(op))))
		o.hashed = cfg.ForceHash || o.nDyn > 0
		o.of = classes.Of[op]
	}
	numNT, widest := g.NumNonterms(), 0
	for op := range g.Ops {
		widest = max(widest, len(g.DynRules(grammar.OpID(op))))
	}
	e.scratch.New = func() *scratch {
		sc := &scratch{delta: make([]grammar.Cost, numNT), rule: make([]int32, numNT)}
		if widest > 0 {
			sc.dyn = make([]grammar.Cost, widest)
		}
		if widest > maxStackDyn {
			sc.key = make([]uint64, 0, 1+(widest+1)/2)
		}
		return sc
	}
	return e, nil
}

// NewSeeded creates an on-demand automaton for g that starts from the
// closure ts instead of empty (see the package documentation): it
// validates ts with automaton.ValidateTables, which copies its states
// into the engine's state table with their ids, classifies them, stores
// the fixed leaf states, and adopts each fixed operator's T1 or T2 table
// as its grid. A table set with no states fails with
// automaton.ErrNoFixedClosure; one whose projection rows disagree with the
// engine's projection, or whose classes at one position exceed the grid
// bound, fails with ErrClassMismatch.
//
// Seeding is not subject to Config.MaxStates, which bounds on-demand
// growth past the seeds: a budget below the seeded state count leaves no
// headroom, and the first construction fails with ErrStateBudget.
// NumTransitions starts at the cells of the grids it adopts. Under
// Config.ForceHash it adopts no leaf state and no grid (every operator
// takes the hash path), and starts at zero. The engine keeps ts.T1 and
// ts.T2 as its initial grids (it never writes a filled cell, and grows a
// grid into a copy), so they must not be mutated afterwards; the states
// are copied.
func NewSeeded(g *grammar.Grammar, env grammar.DynEnv, cfg Config, ts *automaton.TableSet) (*Engine, error) {
	e, err := New(g, env, cfg)
	if err != nil {
		return nil, err
	}
	table, err := automaton.ValidateTables(g, ts)
	if err != nil {
		return nil, err
	}
	table.SetBudget(cfg.MaxStates)
	e.table = table
	cls := e.classifyTo(int32(table.Len()))
	for op := range g.Ops {
		arity := g.Ops[op].Arity
		if g.HasDynRules(grammar.OpID(op)) {
			continue // validated empty: built on demand
		}
		for p := 0; p < arity; p++ {
			if err := e.checkMu(cls, grammar.OpID(op), p, ts); err != nil {
				return nil, err
			}
		}
		if e.ops[op].hashed {
			continue // Config.ForceHash: every transition takes the hash path
		}
		if arity == 0 {
			e.ops[op].leaf.Store(ts.Leaf[op])
			continue
		}
		t := &grid{rows: ts.NReps[op][0], cols: 1, cells: ts.T1[op]}
		if arity == 2 {
			t.cols, t.cells = ts.NReps[op][1], ts.T2[op]
		}
		e.ops[op].grid.Store(t)
		e.transitions.Add(int64(len(t.cells)))
	}
	return e, nil
}

// checkMu verifies that ts's projection row of child position p of op is
// the engine's classification cls of the seeded states, class for class.
func (e *Engine) checkMu(cls []uint16, op grammar.OpID, p int, ts *automaton.TableSet) error {
	sp := int(e.ops[op].of[p])
	name := e.g.OpName(op)
	n := e.spaces[sp].Len()
	if int(ts.NReps[op][p]) != n {
		return fmt.Errorf("%w: operator %s position %d has %d representers, the projection %d classes",
			ErrClassMismatch, name, p, ts.NReps[op][p], n)
	}
	if n > int(e.maxClasses) {
		return fmt.Errorf("%w: operator %s position %d has %d classes, past the grid bound %d",
			ErrClassMismatch, name, p, n, e.maxClasses)
	}
	for s, rep := range ts.Mu[op][p] {
		if c := int32(cls[s*e.nsp+sp]); c != rep {
			return fmt.Errorf("%w: operator %s position %d puts state %d in class %d, the projection in class %d",
				ErrClassMismatch, name, p, s, rep, c)
		}
	}
	return nil
}

// Grammar returns the engine's grammar.
func (e *Engine) Grammar() *grammar.Grammar { return e.g }

// SetMetrics swaps the engine's counter sink (nil disables instrumenting).
// The experiment harness uses it to re-instrument a warmed engine without
// rebuilding its tables. Not safe to call concurrently with labeling.
func (e *Engine) SetMetrics(m *metrics.Counters) { e.m = m }

// Table exposes the hash-consed state table (for inspection and tests).
func (e *Engine) Table() *automaton.Table { return e.table }

// NumStates returns the number of states materialized so far.
func (e *Engine) NumStates() int { return e.table.Len() }

// NumTransitions returns the number of transitions memoized so far: leaf
// cells, class-grid cells and hash-table entries, each one construction
// (or one seeded or loaded entry). Every transition serves a class pair,
// so this counts fewer than the child-state pairs it covers.
func (e *Engine) NumTransitions() int { return int(e.transitions.Load()) }

// lockAll acquires every per-operator slow-path mutex (in index order, so
// concurrent lockAll calls cannot deadlock). Save and Load use it to
// freeze the whole automaton.
func (e *Engine) lockAll() {
	for op := range e.mus {
		e.mus[op].Lock()
	}
}

// unlockAll releases every per-operator slow-path mutex.
func (e *Engine) unlockAll() {
	for op := range e.mus {
		e.mus[op].Unlock()
	}
}

// LabelStates assigns a state to every node of f (topological order, so
// DAGs are covered), constructing missing states and transitions on
// demand. The labeling comes from the engine's free list: hand it back
// with ReleaseLabeling when done to keep the warm path allocation-free, or
// keep it and let the GC have it eventually.
func (e *Engine) LabelStates(f *ir.Forest) *automaton.Labeling {
	return e.LabelStatesMetered(f, nil)
}

// LabelStatesMetered is LabelStates with per-call counter attribution:
// every event of this one call — fast-path probes, misses, dynamic
// evaluations, state constructions — is counted into m instead of the
// engine's configured sink. A nil m falls back to the engine sink. This is
// the metrics hook the compilation server uses to account one shared warm
// engine's work to individual clients.
//
// The loop inlines the grid hit path: on the warm fixed majority a node
// costs the grid pointer, two class loads, one cell load and no call; the
// class matrix is reloaded only after a slow path, the one place states
// are born. Hash-path operators and misses stay out of line, and share one
// scratch, taken at the first construction and returned at the end. A
// panic (a user dynamic-cost function, or the state budget) leaves the
// scratch and the labeling to the GC.
func (e *Engine) LabelStatesMetered(f *ir.Forest, m *metrics.Counters) *automaton.Labeling {
	if m == nil {
		m = e.m
	}
	lab := e.labels.Get()
	ids := lab.Reuse(len(f.Nodes))
	var sc *scratch
	cls, nsp := e.classMatrix(), e.nsp
	for i, n := range f.Nodes {
		m.CountNode()
		op := n.Op
		o := &e.ops[op]
		id := int32(-1)
		if !o.hashed {
			switch len(n.Kids) {
			case 0:
				id = o.leaf.Load()
			case 1:
				id = o.hitUn(cls, nsp, ids[n.Kids[0].Index])
			default:
				if t := o.grid.Load(); t != nil {
					k0 := uint(int(ids[n.Kids[0].Index])*nsp + int(o.of[0]))
					k1 := uint(int(ids[n.Kids[1].Index])*nsp + int(o.of[1]))
					if k0 < uint(len(cls)) && k1 < uint(len(cls)) {
						if c0, c1 := int32(cls[k0]), int32(cls[k1]); c0 < t.rows && c1 < t.cols {
							id = atomic.LoadInt32(&t.cells[c0*t.cols+c1])
						}
					}
				}
			}
		}
		if id >= 0 {
			m.CountProbe(false)
		} else {
			id = e.slow(cls, op, n, ids, m, &sc)
			cls = e.classMatrix()
		}
		ids[i] = id
	}
	if sc != nil {
		e.scratch.Put(sc)
	}
	lab.Bind(e.table)
	return lab
}

// takeScratch returns *sc, first taking one from the free list if the
// call holds none yet.
func (e *Engine) takeScratch(sc **scratch) *scratch {
	if *sc == nil {
		*sc = e.scratch.Get()
	}
	return *sc
}

// ReleaseLabeling implements reduce.LabelingRecycler: it returns a
// labeling obtained from LabelStates to the engine's free list so the
// next call reuses its buffers. The labeling must not be used afterwards.
func (e *Engine) ReleaseLabeling(lab reduce.Labeling) {
	if l, ok := lab.(*automaton.Labeling); ok && l != nil {
		e.labels.Put(l)
	}
}

// Label implements reduce.Labeler; see LabelStates for the concrete
// per-node state assignment.
func (e *Engine) Label(f *ir.Forest) reduce.Labeling { return e.LabelStates(f) }

// LabelMetered implements reduce.Labeler; see LabelStatesMetered.
func (e *Engine) LabelMetered(f *ir.Forest, m *metrics.Counters) reduce.Labeling {
	return e.LabelStatesMetered(f, m)
}

// slow labels a node the grid hit path could not, given the class matrix
// cls the caller holds: through the hash path, or the fixed operators'
// miss path.
func (e *Engine) slow(cls []uint16, op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters, sc **scratch) int32 {
	if e.ops[op].hashed {
		return e.labelHashed(cls, op, n, ids, m, sc)
	}
	return e.miss(cls, op, n, ids, m, sc)
}

// hitUn returns the operator's unary transition from child state kid
// through class matrix cls (nsp spaces wide), or -1 when it is not
// constructed yet, kid is not in cls, or its class is past the grid bound.
func (o *opTab) hitUn(cls []uint16, nsp int, kid int32) int32 {
	t := o.grid.Load()
	k := uint(int(kid)*nsp + int(o.of[0]))
	if t == nil || k >= uint(len(cls)) {
		return -1
	}
	if c := int32(cls[k]); c < t.rows {
		return atomic.LoadInt32(&t.cells[c])
	}
	return -1
}

// classMatrix returns the published class matrix, as far as it covers
// classified states. The count is loaded first: classifyTo publishes a
// grown backing array before the count that needs it.
func (e *Engine) classMatrix() []uint16 {
	n := e.clsN.Load()
	return (*e.cls.Load())[:int(n)*e.nsp]
}

// classOf returns the class of state id in class space sp: one load from
// the class matrix cls, unless id is not in cls yet or its class is past
// the grid bound (see classSlow).
func (e *Engine) classOf(cls []uint16, sp int32, id int32) int32 {
	if k := uint(int(id)*e.nsp + int(sp)); k < uint(len(cls)) && cls[k] != noClass {
		return int32(cls[k])
	}
	return e.classSlow(sp, id)
}

// classAt is classOf's matrix load alone, small enough to inline: the
// class of state id in space sp, or noClass when cls cannot answer.
func classAt(cls []uint16, nsp int, sp int32, id int32) int32 {
	if k := uint(int(id)*nsp + int(sp)); k < uint(len(cls)) {
		return int32(cls[k])
	}
	return noClass
}

// kidClasses returns the classes of n's children at their positions of
// op (0 past the arity), by classOf.
func (e *Engine) kidClasses(cls []uint16, op grammar.OpID, n *ir.Node, ids []int32) [2]int32 {
	var c [2]int32
	for p, kid := range n.Kids {
		c[p] = e.classOf(cls, e.ops[op].of[p], ids[kid.Index])
	}
	return c
}

// classSlow is classOf's way out of the matrix: it classifies id if need
// be, and searches the space under classMu for a class past the grid
// bound.
func (e *Engine) classSlow(sp int32, id int32) int32 {
	if c := e.classifyTo(id + 1)[int(id)*e.nsp+int(sp)]; c != noClass {
		return int32(c)
	}
	e.classMu.Lock()
	defer e.classMu.Unlock()
	return e.spaces[sp].Find(e.table.Get(id))
}

// classifyTo classifies, in every class space, each state born since the
// class matrix was last published, so that at least the states below n
// are covered, and returns the matrix. Rows are filled past the published
// count, invisible to readers, before the count moves; the backing array
// grows by a quarter of its states at least, so births rarely allocate.
// Callers may hold an operator's mutex, never classMu.
func (e *Engine) classifyTo(n int32) []uint16 {
	if n <= e.clsN.Load() {
		return e.classMatrix()
	}
	e.classMu.Lock()
	defer e.classMu.Unlock()
	have := e.clsN.Load()
	states := e.table.States()
	end := int32(len(states))
	if end <= have {
		return e.classMatrix()
	}
	c := *e.cls.Load()
	if need := int(end) * e.nsp; need > len(c) {
		grown := make([]uint16, need+max(classSlack, int(end)/4)*e.nsp)
		copy(grown, c[:int(have)*e.nsp])
		e.cls.Store(&grown)
		c = grown
	}
	for id := have; id < end; id++ {
		row := c[int(id)*e.nsp : int(id+1)*e.nsp]
		for sp, cs := range e.spaces {
			k, created := cs.Classify(states[id])
			if created {
				e.classBytes.Add(16) // the class's hash and sample
			}
			if k >= e.maxClasses {
				k = noClass
			}
			row[sp] = uint16(k)
		}
	}
	e.clsN.Store(end)
	return c[:int(end)*e.nsp]
}

// miss is the slow path of a fixed operator: construct under the
// operator's mutex, re-checking first because another goroutine may have
// won the race — or because the children are new states of classes that
// already have their transition, which then costs no construction. A
// child class past the grid bound takes the hash path instead.
func (e *Engine) miss(cls []uint16, op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters, sc **scratch) int32 {
	if len(n.Kids) == 0 {
		e.mus[op].Lock()
		defer e.mus[op].Unlock()
		if id := e.ops[op].leaf.Load(); id >= 0 {
			m.CountProbe(false)
			return id
		}
		m.CountProbe(true)
		s := e.construct(op, nil, nil, m, sc)
		e.ops[op].leaf.Store(s.ID)
		e.addTransition(m)
		return s.ID
	}
	c := e.kidClasses(cls, op, n, ids)
	if c[0] >= e.maxClasses || c[1] >= e.maxClasses {
		return e.labelHashed(cls, op, n, ids, m, sc)
	}
	var kbuf [2]*automaton.State
	kids := kbuf[:len(n.Kids)]
	for p, kid := range n.Kids {
		kids[p] = e.table.Get(ids[kid.Index])
	}
	e.mus[op].Lock()
	defer e.mus[op].Unlock()
	if id := e.cell(op, c); id >= 0 {
		m.CountProbe(false)
		return id
	}
	m.CountProbe(true)
	s := e.construct(op, kids, nil, m, sc)
	e.setCellLocked(op, c, s.ID)
	e.addTransition(m)
	return s.ID
}

// cell returns op's grid cell for child classes c, or -1 when it is
// unconstructed or outside the grid.
func (e *Engine) cell(op grammar.OpID, c [2]int32) int32 {
	if t := e.ops[op].grid.Load(); t != nil && c[0] < t.rows && c[1] < t.cols {
		return atomic.LoadInt32(&t.cells[c[0]*t.cols+c[1]])
	}
	return -1
}

// setCellLocked writes op's grid cell for child classes c (both below the
// grid bound), growing the grid copy-on-write when c is out of range.
// Caller holds e.mus[op].
func (e *Engine) setCellLocked(op grammar.OpID, c [2]int32, id int32) {
	old := e.ops[op].grid.Load()
	if old != nil && c[0] < old.rows && c[1] < old.cols {
		atomic.StoreInt32(&old.cells[c[0]*old.cols+c[1]], id)
		return
	}
	rows, cols := min(c[0]+1+gridSlack, e.maxClasses), int32(1)
	if e.g.Ops[op].Arity == 2 {
		cols = min(c[1]+1+gridSlack, e.maxClasses)
	}
	if old != nil {
		rows, cols = max(rows, old.rows), max(cols, old.cols)
	}
	t := &grid{rows: rows, cols: cols, cells: make([]int32, int(rows)*int(cols))}
	for i := range t.cells {
		t.cells[i] = -1
	}
	if old != nil {
		for r := int32(0); r < old.rows; r++ {
			copy(t.cells[r*cols:r*cols+old.cols], old.cells[r*old.cols:(r+1)*old.cols])
		}
	}
	t.cells[c[0]*cols+c[1]] = id
	// Fully populated before publication.
	e.ops[op].grid.Store(t)
}

// addTransition accounts one memoized transition. Caller holds the
// operator's slow-path mutex.
func (e *Engine) addTransition(m *metrics.Counters) {
	e.transitions.Add(1)
	m.CountTransition()
}

// classKey packs child classes into the first key word of the hash path:
// position 0 in the high 32 bits, position 1 in the low. Absent children
// pack as class 0 — unambiguous because the operator's arity is fixed by
// the grammar.
func classKey(c [2]int32) uint64 {
	return uint64(uint32(c[0]))<<32 | uint64(uint32(c[1]))
}

// keyWords returns the fixed open-addressing key width of op: one class
// word plus the packed signature words (two 32-bit costs per word).
func (e *Engine) keyWords(op grammar.OpID) int {
	return 1 + (len(e.g.DynRules(op))+1)/2
}

// labelHashed labels one node through op's open table: keyed by the
// children's classes plus, for an operator with dynamic rules, the
// evaluated dynamic-cost signature (ForceHash, or a class past the grid
// bound, key by the classes alone). The probe key lives in a stack array
// unless the signature is wider than maxStackDyn, so a hit touches no
// scratch; a miss constructs under the operator's mutex, one construction
// for the whole class pair and signature, reading the dynamic costs back
// out of the key.
func (e *Engine) labelHashed(cls []uint16, op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters, sc **scratch) int32 {
	o := &e.ops[op]
	var keyBuf [1 + maxStackDyn/2]uint64
	key := keyBuf[:0]
	if o.nDyn > maxStackDyn {
		key = e.takeScratch(sc).key[:0]
	}
	// The child classes are loaded per arity, with no loop, and packed in
	// registers: a [2]int32 written as two 32-bit stores and read back as
	// one word would stall store forwarding.
	var c0, c1 int32
	switch len(n.Kids) {
	case 2:
		c1 = classAt(cls, e.nsp, o.of[1], ids[n.Kids[1].Index])
		fallthrough
	case 1:
		c0 = classAt(cls, e.nsp, o.of[0], ids[n.Kids[0].Index])
	}
	if c0 == noClass || c1 == noClass {
		c := e.kidClasses(cls, op, n, ids)
		c0, c1 = c[0], c[1]
	}
	key = append(key, uint64(uint32(c0))<<32|uint64(uint32(c1)))
	if o.nDyn > 0 {
		key = e.evalDyn(n, ids, key, m)
	}
	h := hashKey(key)
	if t := o.dyn.Load(); t != nil {
		if id, ok := t.get(key, h); ok {
			m.CountProbe(false)
			return id
		}
	}
	return e.buildHashed(op, n, ids, key, h, m, sc)
}

// buildHashed is labelHashed's miss path: under the operator's mutex,
// probe again, then construct the state for key (hash h) — its dynamic
// costs read back out of the key — and insert it.
func (e *Engine) buildHashed(op grammar.OpID, n *ir.Node, ids []int32, key []uint64, h uint64, m *metrics.Counters, sc **scratch) int32 {
	e.mus[op].Lock()
	defer e.mus[op].Unlock()
	if t := e.ops[op].dyn.Load(); t != nil {
		if id, ok := t.get(key, h); ok {
			m.CountProbe(false)
			return id
		}
	}
	m.CountProbe(true)
	var kbuf [2]*automaton.State
	kids := kbuf[:len(n.Kids)]
	for p, kid := range n.Kids {
		kids[p] = e.table.Get(ids[kid.Index])
	}
	var dyn []grammar.Cost
	if nDyn := e.ops[op].nDyn; nDyn > 0 {
		dyn = e.takeScratch(sc).dyn[:nDyn]
		for j := range dyn {
			dyn[j] = grammar.Cost(int32(uint32(key[1+j/2] >> (32 * uint(j%2)))))
		}
	}
	s := e.construct(op, kids, dyn, m, sc)
	e.insertDynLocked(op, key, h, s.ID)
	e.addTransition(m)
	return s.ID
}

// insertDynLocked memoizes (key -> id) in op's open table, allocating or
// growing it as needed. Caller holds e.mus[op]. A fresh or grown table is
// fully populated before its pointer is published.
func (e *Engine) insertDynLocked(op grammar.OpID, key []uint64, h uint64, id int32) {
	t := e.ops[op].dyn.Load()
	switch {
	case t == nil:
		t = newOpenTab(len(key), openTabMinCap)
		t.insertLocked(key, h, id)
		e.ops[op].dyn.Store(t)
	case t.full():
		nt := t.grown()
		nt.insertLocked(key, h, id)
		e.ops[op].dyn.Store(nt)
	default:
		t.insertLocked(key, h, id)
	}
}

// evalDyn evaluates the dynamic rules of n's operator and appends the
// packed signature to key (after its class word): two 32-bit costs per
// word with the earlier rule in the low half — the same byte image the
// persisted signature uses, so saved automata round-trip bit-exactly. A
// dynamic-cost function only runs when its rule is structurally
// applicable (every kid nonterminal derivable in the kid's state); such
// functions inspect the matched pattern's shape, so calling them on
// non-matching nodes would be wrong — and skipping them also keeps the
// fast path's dynamic-evaluation count low. Applicability depends on the
// kids' classes only: a rule's kid nonterminals are relevant at their
// positions, and rebasing keeps infinite costs infinite.
func (e *Engine) evalDyn(n *ir.Node, ids []int32, key []uint64, m *metrics.Counters) []uint64 {
	// One snapshot resolves every kid id: kid states were interned before
	// their ids were published, and the state list is append-only.
	states := e.table.States()
	var kids [2][]grammar.Cost
	for ki, kid := range n.Kids {
		kids[ki] = states[ids[kid.Index]].Delta
	}
	arity := len(n.Kids)
	var w uint64
	rules := e.g.DynRules(n.Op)
	for i, ri := range rules {
		r := &e.g.Rules[ri]
		c := grammar.Inf
		if (arity < 1 || !kids[0][r.Kids[0]].IsInf()) && (arity < 2 || !kids[1][r.Kids[1]].IsInf()) {
			m.CountDyn(1)
			if c = e.dynFns[ri](n); c >= grammar.Inf {
				c = grammar.Inf
			}
		}
		if i%2 == 0 {
			w = uint64(uint32(c))
		} else {
			key = append(key, w|uint64(uint32(c))<<32)
		}
	}
	if len(rules)%2 == 1 {
		key = append(key, w)
	}
	return key
}

// construct is the slow path: run the DP step once, into the call's
// scratch vectors (taken now if the call holds none), intern the result,
// which copies the vectors only if the state is new, and classify it.
// Callers hold the operator's slow-path mutex, so concurrent misses of the
// same transition construct once; the state table additionally dedups by
// content (which also keeps states interned from different operators'
// shards consistent).
//
// When Config.MaxStates is set and interning would exceed it, construct
// panics with the ErrStateBudget-wrapping error. A panic is the only way
// out of the Label fast path (the reduce.Labeler interface is error-free
// by design — the warm path cannot fail); every lock on the way up is
// released by defers, the call's scratch and labeling go to the GC, and
// the API layer (Selector.Compile) recovers the typed error and returns
// it to the caller.
func (e *Engine) construct(op grammar.OpID, kids []*automaton.State, dynVals []grammar.Cost, m *metrics.Counters, sc **scratch) *automaton.State {
	buf := e.takeScratch(sc)
	automaton.Compute(e.g, op, kids, dynVals, e.deltaCap, m, buf.delta, buf.rule)
	s, _, err := e.table.InternBudget(buf.delta, buf.rule, m)
	if err != nil {
		panic(err)
	}
	e.classifyTo(s.ID + 1)
	return s
}

// MemoryBytes estimates the engine's current table footprint: interned
// states plus the class matrix and spaces and all memoized transition
// storage. Grid cells are 4 bytes (flat int32 state ids), class-matrix
// entries 2.
func (e *Engine) MemoryBytes() int {
	b := e.table.MemoryBytes() + 2*len(*e.cls.Load()) + int(e.classBytes.Load())
	for op := range e.ops {
		if t := e.ops[op].grid.Load(); t != nil {
			b += 4*len(t.cells) + 16
		}
		if t := e.ops[op].dyn.Load(); t != nil {
			b += t.memoryBytes()
		}
	}
	b += 4 * len(e.ops)
	return b
}
