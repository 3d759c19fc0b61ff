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
// Operators without dynamic rules get dense transition tables indexed by
// child state ids (a direct lookup, like a static automaton); operators
// with dynamic rules go through a hash table whose key includes the
// evaluated dynamic-cost signature — the structure the successor literature
// describes as "computing all the dynamic costs and a hash table lookup per
// node". Because states are constructed at selection time, dynamic costs
// work, which no offline automaton can offer.
//
// # Table layout
//
// The dense tables are flat int32 state-id arrays, not pointer arrays:
// unary operators get one row indexed by the child state id, binary
// operators one row-major grid indexed by left×stride+right. Entries are 4
// bytes instead of 8, and a binary lookup is one atomic pointer load (the
// operator's current grid) plus one indexed load — the "cost of one table
// lookup" the paper promises, with no per-row indirection. -1 marks a
// transition not yet constructed. State ids index automaton.Table, whose
// state list is append-only, so an id read from any published table cell
// always resolves.
//
// A grid is sized by the largest child id it has seen, so ids are capped:
// transitions with a child id past automaton.ExpandMaxStates(g) — which
// keeps all dense tables together within automaton.ExpandMaxBytes — go to
// the operator's hash table instead, the path ForceHash uses for all of
// them. Engines seeded with thousands of states (a hybrid's blob may claim
// them) therefore stay bounded under traffic.
//
// # Seeding
//
// NewSeeded is the hybrid kind: the same engine, started from an
// ahead-of-time closure (automaton.GenerateTables, or a `.isel` blob)
// instead of empty. It interns copies of the table set's states with
// their ids and writes the fixed operators' expanded transitions
// straight into the dense tables above, so fixed-operator traffic hits
// from the first request while dynamic operators construct on demand as
// usual. The closure is a fixpoint over the fixed operators, so a seeded
// grid never misses on seeded children; children born on demand (under a
// dynamic subtree) extend the grids like any other miss.
//
// # Concurrency
//
// One warm engine can serve many goroutines — the compilation-server
// scenario the paper's JIT setting generalizes to. The design keeps the
// warm fast path lock-free and pushes all synchronization onto the
// construct slow path:
//
//   - Dense leaf/unary/binary tables are published copy-on-write through
//     one atomic pointer per operator; cells are written and read with
//     atomic int32 operations. Tables grow only under the operator's
//     slow-path mutex, and a grown table is fully populated before its
//     pointer is released.
//   - The construct slow path is sharded per operator: misses on
//     different operators construct concurrently (the dense tables and
//     open-addressing tables they write are per-op; the shared state table
//     synchronizes interning internally). Cold-start contention therefore
//     scales with the operator mix instead of serializing on one
//     engine-global lock.
//   - The hash-consing state table (automaton.Table) serializes interning
//     internally; see its documentation.
//   - The hash transition path (dynamic operators, ForceHash) uses one
//     open-addressing table per operator (see openTab): flat []uint64 key
//     words and []int32 id slots, linear probing, a lock-free hit path
//     with no interface conversions or boxed values, misses serialized on
//     the operator's mutex. Keys — child state ids plus the packed
//     dynamic-cost signature — are built in the call's scratch and copied
//     into the table only when a miss actually inserts them. Growth
//     rehashes into a double-size table published through the operator's
//     atomic pointer once fully populated.
//   - Per-call scratch (dynamic-cost values, probe key words and the
//     construction vectors Compute fills) comes from a free list owned by
//     the engine (internal/freelist), so concurrent labelers never share
//     buffers. A labeling call takes one scratch at its first hash-path
//     node or miss and returns it at the end — never a lock or a list
//     item per node; LabelNode, which labels one node, takes its own, and
//     level-parallel labeling takes one per goroutine's share of a level. A
//     panicking user dynamic-cost function loses that call's scratch to
//     the GC, which is harmless (the panic itself propagates to the
//     caller's containment boundary — the compilation server recovers it
//     per job). Labelings come from a second free list and flow back via
//     ReleaseLabeling, which is what makes the warm path allocation-free
//     end to end. The lists are plain fields, not sync.Pools, so a
//     dropped engine and everything it recycles die at the next GC.
//
// Label, LabelNode and Save may be called concurrently; SetMetrics and
// Load must be serialized against labeling (Load additionally requires a
// fresh engine). Metrics counters are themselves race-safe (atomic adds),
// so one Counters sink can instrument a parallel session. For per-caller
// accounting — the compilation server attributes work to clients —
// LabelStatesMetered counts one call's events into a caller-supplied
// sink instead of the engine's own.
package core

import (
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
	// ForceHash disables the dense direct-lookup arrays and routes every
	// transition through the hash maps; used by the table-layout ablation.
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

// growSlack is the headroom added when a dense table grows, so a run of
// adjacent new states does not trigger a copy per state.
const growSlack = 8

// unRow is the dense transition row of a unary operator, indexed by the
// child state id. Cells hold state ids (-1 until constructed) and are
// accessed with atomic int32 operations because published rows are read
// concurrently.
type unRow []int32

// binGrid is the flat row-major dense table of a binary operator: cell
// [l*stride+r] holds the state id reached from left child state l and
// right child state r (-1 until constructed).
type binGrid struct {
	rows, stride int32
	cells        []int32
}

// Engine is an on-demand tree-parsing automaton. It persists across
// Label calls — exactly the JIT scenario the paper targets: the automaton
// warms up as the compiler runs, and per-node labeling cost converges to a
// table lookup. Engines are safe for concurrent labeling (see the package
// documentation for the contract). Engine implements reduce.Labeler,
// reduce.MeteredLabeler and reduce.LabelingRecycler.
type Engine struct {
	g        *grammar.Grammar
	dynFns   []grammar.DynFunc
	table    *automaton.Table
	deltaCap grammar.Cost
	m        *metrics.Counters
	// hashed[op] routes op through the hash path: the operator has
	// dynamic rules, or Config.ForceHash is set.
	hashed []bool
	// denseIDs bounds the child state ids the dense tables index; see
	// the package documentation.
	denseIDs int32

	// mus serializes the construct slow path per operator: state
	// construction, dense table growth and hash insertion. Misses on
	// different operators proceed concurrently; the warm fast path never
	// locks. Save and Load lock every shard (lockAll) for a consistent
	// whole-automaton snapshot.
	mus []sync.Mutex

	// Fixed-cost fast paths: dense flat id tables, grown on demand,
	// published atomically.
	leaf []atomic.Int32            // [op] -> state id, -1 until constructed
	un   []atomic.Pointer[unRow]   // [op][kidState] -> state id
	bin  []atomic.Pointer[binGrid] // [op][left*stride+right] -> state id

	// Dynamic-rule (and ForceHash) path: open-addressing tables keyed by
	// child state ids plus the packed dynamic-cost signature; slot values
	// are state ids. nil until the operator's first miss.
	dyn []atomic.Pointer[openTab] // [op]

	transitions atomic.Int64
	scratch     freelist.List[scratch]
	labels      freelist.List[automaton.Labeling]
}

// scratch holds the per-call buffers of the slow paths, taken from the
// engine's free list at most once per labeling call so concurrent
// labelers never share them. dyn and key serve the dynamic-cost
// evaluation: key is the packed open-addressing probe key, whose word 0 is
// l<<32|r and whose remaining words pack the signature costs two per word
// (low half first). delta and rule are the construction vectors Compute
// fills; the state table copies them only when a state is born.
type scratch struct {
	dyn   []grammar.Cost
	key   []uint64
	delta []grammar.Cost
	rule  []int32
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
	e := &Engine{
		g:        g,
		dynFns:   dyn,
		table:    table,
		deltaCap: cfg.DeltaCap,
		m:        cfg.Metrics,
		hashed:   make([]bool, g.NumOps()),
		denseIDs: int32(automaton.ExpandMaxStates(g)),
		mus:      make([]sync.Mutex, g.NumOps()),
		leaf:     make([]atomic.Int32, g.NumOps()),
		un:       make([]atomic.Pointer[unRow], g.NumOps()),
		bin:      make([]atomic.Pointer[binGrid], g.NumOps()),
		dyn:      make([]atomic.Pointer[openTab], g.NumOps()),
	}
	for op := range e.leaf {
		e.leaf[op].Store(-1) // 0 is a valid state id; -1 means "no transition yet"
		e.hashed[op] = cfg.ForceHash || g.HasDynRules(grammar.OpID(op))
	}
	numNT := g.NumNonterms()
	e.scratch.New = func() *scratch {
		return &scratch{delta: make([]grammar.Cost, numNT), rule: make([]int32, numNT)}
	}
	return e, nil
}

// NewSeeded creates an on-demand automaton for g that starts from the
// closure ts instead of empty (see the package documentation): it
// validates ts with automaton.ValidateTables, which copies its states
// into the engine's state table with their ids, stores the fixed leaf
// states, and writes each fixed operator's expanded transitions into the
// dense tables — or, when expansion would exceed automaton.ExpandMaxBytes,
// seeds the states only and lets the dense tables warm under traffic. A
// table set with no states fails with automaton.ErrNoFixedClosure.
//
// Seeding is not subject to Config.MaxStates, which bounds on-demand
// growth past the seeds: a budget below the seeded state count leaves no
// headroom, and the first construction fails with ErrStateBudget.
// NumTransitions starts at the table set's compressed transition count.
// The engine keeps nothing of ts: states are copied and transitions are
// expanded into the engine's own tables.
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
	for op, id := range ts.Leaf {
		if g.Ops[op].Arity == 0 && id >= 0 {
			e.leaf[op].Store(id)
		}
	}
	// Expansion is accepted only up to automaton.ExpandMaxStates(g) =
	// denseIDs states, so the seeded grids always fit the dense bound.
	n := int32(table.Len())
	dir1, dir2 := automaton.ExpandTables(g, int(n), ts)
	for op := range dir1 {
		if dir1[op] != nil {
			row := unRow(dir1[op])
			e.un[op].Store(&row)
		}
		if dir2[op] != nil {
			e.bin[op].Store(&binGrid{rows: n, stride: n, cells: dir2[op]})
		}
	}
	e.transitions.Store(int64(ts.TransitionEntries()))
	return e, nil
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

// NumTransitions returns the number of transitions memoized so far.
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
// The loop hand-inlines labelNode's dense hit path: on the warm fixed
// majority a node costs one table load and no call. Hash-path operators
// and misses stay out of line, and share one scratch, taken at the first
// of them and returned at the end. A panic (a user dynamic-cost function,
// or the state budget) leaves the scratch and the labeling to the GC.
func (e *Engine) LabelStatesMetered(f *ir.Forest, m *metrics.Counters) *automaton.Labeling {
	if m == nil {
		m = e.m
	}
	lab := e.labels.Get()
	ids := lab.Reuse(len(f.Nodes))
	var sc *scratch
	for i, n := range f.Nodes {
		m.CountNode()
		op := n.Op
		if e.hashed[op] {
			ids[i] = e.labelHashed(op, n, ids, m, e.takeScratch(&sc))
			continue
		}
		var id int32
		switch len(n.Kids) {
		case 0:
			id = e.leaf[op].Load()
		case 1:
			id = e.hitUn(op, ids[n.Kids[0].Index])
		default:
			id = e.hitBin(op, ids[n.Kids[0].Index], ids[n.Kids[1].Index])
		}
		if id < 0 {
			id = e.miss(op, n, ids, m, e.takeScratch(&sc))
		} else {
			m.CountProbe(false)
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

// LabelMetered implements reduce.MeteredLabeler.
func (e *Engine) LabelMetered(f *ir.Forest, m *metrics.Counters) reduce.Labeling {
	return e.LabelStatesMetered(f, m)
}

// LabelNode labels one node whose children are already labeled in ids
// (indexed by node index) and returns the node's state id. Exposed so
// incremental clients (the JIT scenario) can interleave labeling with
// other per-node work; resolve ids through Table().Get.
func (e *Engine) LabelNode(n *ir.Node, ids []int32) int32 {
	var sc *scratch
	id := e.labelNode(n, ids, e.m, &sc)
	if sc != nil {
		e.scratch.Put(sc)
	}
	return id
}

// labelHashed labels one node through op's hash table: keyed by the
// evaluated dynamic-cost signature for an operator with dynamic rules, by
// the child ids alone otherwise (ForceHash, or a child id past the dense
// bound). sc is the calling labeler's scratch.
func (e *Engine) labelHashed(op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters, sc *scratch) int32 {
	var dynVals []grammar.Cost
	if e.g.HasDynRules(op) {
		e.evalDyn(n, ids, sc, m)
		dynVals = sc.dyn
	} else {
		sc.key = append(sc.key[:0], packLR(n, ids))
	}
	return e.lookupHash(op, n, ids, dynVals, m, sc)
}

// labelNode labels one node, counting events into m: the body of
// LabelStatesMetered's loop, for callers labeling one node at a time. A
// node that needs the slow paths uses *sc, first taking it from the free
// list if the caller holds none yet; the caller returns it.
func (e *Engine) labelNode(n *ir.Node, ids []int32, m *metrics.Counters, sc **scratch) int32 {
	m.CountNode()
	op := n.Op
	var id int32
	if !e.hashed[op] {
		switch len(n.Kids) {
		case 0:
			id = e.leaf[op].Load()
		case 1:
			id = e.hitUn(op, ids[n.Kids[0].Index])
		default:
			id = e.hitBin(op, ids[n.Kids[0].Index], ids[n.Kids[1].Index])
		}
		if id >= 0 {
			m.CountProbe(false)
			return id
		}
	}
	if e.hashed[op] {
		return e.labelHashed(op, n, ids, m, e.takeScratch(sc))
	}
	return e.miss(op, n, ids, m, e.takeScratch(sc))
}

// hitUn returns the dense unary transition of op from child state kid, or
// -1 when it is not constructed yet.
func (e *Engine) hitUn(op grammar.OpID, kid int32) int32 {
	if rp := e.un[op].Load(); rp != nil {
		if row := *rp; int(kid) < len(row) {
			return atomic.LoadInt32(&row[kid])
		}
	}
	return -1
}

// hitBin is hitUn for binary operators.
func (e *Engine) hitBin(op grammar.OpID, l, r int32) int32 {
	if t := e.bin[op].Load(); t != nil && l < t.rows && r < t.stride {
		return atomic.LoadInt32(&t.cells[l*t.stride+r])
	}
	return -1
}

// miss is the dense slow path of a fixed operator: construct under the
// operator's mutex, re-checking first because another goroutine may have
// won the race. A child id past the dense bound takes the hash path
// instead. sc is the calling labeler's scratch.
func (e *Engine) miss(op grammar.OpID, n *ir.Node, ids []int32, m *metrics.Counters, sc *scratch) int32 {
	var kids [2]*automaton.State
	var id int32
	switch len(n.Kids) {
	case 0:
		e.mus[op].Lock()
		defer e.mus[op].Unlock()
		id = e.leaf[op].Load()
	case 1:
		kid := ids[n.Kids[0].Index]
		if kid >= e.denseIDs {
			return e.labelHashed(op, n, ids, m, sc)
		}
		e.mus[op].Lock()
		defer e.mus[op].Unlock()
		id = e.hitUn(op, kid)
		kids[0] = e.table.Get(kid)
	default:
		l, r := ids[n.Kids[0].Index], ids[n.Kids[1].Index]
		if l >= e.denseIDs || r >= e.denseIDs {
			return e.labelHashed(op, n, ids, m, sc)
		}
		e.mus[op].Lock()
		defer e.mus[op].Unlock()
		id = e.hitBin(op, l, r)
		kids[0], kids[1] = e.table.Get(l), e.table.Get(r)
	}
	if id >= 0 {
		m.CountProbe(false)
		return id
	}
	m.CountProbe(true)
	s := e.construct(op, kids[:len(n.Kids)], nil, m, sc)
	switch len(n.Kids) {
	case 0:
		e.leaf[op].Store(s.ID)
	case 1:
		e.setUnLocked(op, int(kids[0].ID), s.ID)
	default:
		e.setBinLocked(op, int(kids[0].ID), int(kids[1].ID), s.ID)
	}
	e.addTransition(m)
	return s.ID
}

// setUnLocked writes un[op][kid] = id, growing the row copy-on-write when
// kid is out of range; a kid past the dense bound goes to the hash table.
// Caller holds e.mus[op].
func (e *Engine) setUnLocked(op grammar.OpID, kid int, id int32) {
	if kid >= int(e.denseIDs) {
		e.setHashLocked(op, uint64(kid)<<32, id)
		return
	}
	rp := e.un[op].Load()
	if rp != nil && kid < len(*rp) {
		atomic.StoreInt32(&(*rp)[kid], id)
		return
	}
	var old unRow
	if rp != nil {
		old = *rp
	}
	row := make(unRow, min(kid+1+growSlack, int(e.denseIDs)))
	copy(row, old)
	for i := len(old); i < len(row); i++ {
		row[i] = -1
	}
	row[kid] = id
	// The new row is fully populated before the pointer is released.
	e.un[op].Store(&row)
}

// setBinLocked writes bin[op][l][r] = id, growing the grid copy-on-write
// (both dimensions at once) when (l, r) is out of range; ids past the
// dense bound go to the hash table. Caller holds e.mus[op].
func (e *Engine) setBinLocked(op grammar.OpID, l, r int, id int32) {
	if l >= int(e.denseIDs) || r >= int(e.denseIDs) {
		e.setHashLocked(op, uint64(l)<<32|uint64(r), id)
		return
	}
	old := e.bin[op].Load()
	if old != nil && int32(l) < old.rows && int32(r) < old.stride {
		atomic.StoreInt32(&old.cells[int32(l)*old.stride+int32(r)], id)
		return
	}
	rows, stride := min(int32(l+1+growSlack), e.denseIDs), min(int32(r+1+growSlack), e.denseIDs)
	if old != nil {
		if old.rows > rows {
			rows = old.rows
		}
		if old.stride > stride {
			stride = old.stride
		}
	}
	t := &binGrid{rows: rows, stride: stride, cells: make([]int32, int(rows)*int(stride))}
	for i := range t.cells {
		t.cells[i] = -1
	}
	if old != nil {
		for li := int32(0); li < old.rows; li++ {
			copy(t.cells[li*stride:li*stride+old.stride], old.cells[li*old.stride:(li+1)*old.stride])
		}
	}
	t.cells[int32(l)*stride+int32(r)] = id
	// Fully populated before publication.
	e.bin[op].Store(t)
}

// setHashLocked memoizes a fixed-operator transition with a child id past
// the dense bound in op's hash table, under the key labelHashed probes:
// l<<32|r. Caller holds e.mus[op].
func (e *Engine) setHashLocked(op grammar.OpID, lr uint64, id int32) {
	key := []uint64{lr}
	e.insertDynLocked(op, key, hashKey(key), id)
}

// addTransition accounts one memoized transition. Caller holds the
// operator's slow-path mutex.
func (e *Engine) addTransition(m *metrics.Counters) {
	e.transitions.Add(1)
	m.CountTransition()
}

// packLR packs n's child state ids into the first key word: left id in
// the high 32 bits, right in the low (the same convention the persisted
// binary triples use). Absent children pack as state 0 slots of zero —
// unambiguous because the operator's arity is fixed by the grammar.
func packLR(n *ir.Node, ids []int32) uint64 {
	var l, r int32
	switch len(n.Kids) {
	case 0:
	case 1:
		l = ids[n.Kids[0].Index]
	default:
		l, r = ids[n.Kids[0].Index], ids[n.Kids[1].Index]
	}
	return uint64(uint32(l))<<32 | uint64(uint32(r))
}

// keyWords returns the fixed open-addressing key width of op: one (l, r)
// word plus the packed signature words (two 32-bit costs per word).
func (e *Engine) keyWords(op grammar.OpID) int {
	return 1 + (len(e.g.DynRules(op))+1)/2
}

// lookupHash handles operators with dynamic rules (and the ForceHash
// ablation): one open-addressing probe keyed by the packed key words in
// sc.key — the hit path never copies them; the miss path copies them into
// the table on insertion.
func (e *Engine) lookupHash(op grammar.OpID, n *ir.Node, ids []int32, dynVals []grammar.Cost, m *metrics.Counters, sc *scratch) int32 {
	key := sc.key
	h := hashKey(key)
	if t := e.dyn[op].Load(); t != nil {
		if id, ok := t.get(key, h); ok {
			m.CountProbe(false)
			return id
		}
	}
	e.mus[op].Lock()
	defer e.mus[op].Unlock()
	if t := e.dyn[op].Load(); t != nil {
		if id, ok := t.get(key, h); ok {
			m.CountProbe(false)
			return id
		}
	}
	m.CountProbe(true)
	var kbuf [2]*automaton.State
	kids := kbuf[:0]
	for ki := range n.Kids {
		kids = append(kids, e.table.Get(ids[n.Kids[ki].Index]))
	}
	s := e.construct(op, kids, dynVals, m, sc)
	e.insertDynLocked(op, key, h, s.ID)
	e.addTransition(m)
	return s.ID
}

// insertDynLocked memoizes (key -> id) in op's open table, allocating or
// growing it as needed. Caller holds e.mus[op]. A fresh or grown table is
// fully populated before its pointer is published.
func (e *Engine) insertDynLocked(op grammar.OpID, key []uint64, h uint64, id int32) {
	t := e.dyn[op].Load()
	switch {
	case t == nil:
		t = newOpenTab(len(key), openTabMinCap)
		t.insertLocked(key, h, id)
		e.dyn[op].Store(t)
	case t.full():
		nt := t.grown()
		nt.insertLocked(key, h, id)
		e.dyn[op].Store(nt)
	default:
		t.insertLocked(key, h, id)
	}
}

// evalDyn evaluates the dynamic rules of n's operator into sc.dyn and
// packs the probe key (sc.key) that distinguishes transition outcomes:
// the (l, r) word followed by the signature costs, two 32-bit values per
// word with the earlier rule in the low half — the same byte image the
// persisted signature uses, so saved automata round-trip bit-exactly. A
// dynamic-cost function only runs when its rule is structurally
// applicable (every kid nonterminal derivable in the kid's state); such
// functions inspect the matched pattern's shape, so calling them on
// non-matching nodes would be wrong — and skipping them also keeps the
// fast path's dynamic-evaluation count low.
func (e *Engine) evalDyn(n *ir.Node, ids []int32, sc *scratch, m *metrics.Counters) {
	rules := e.g.DynRules(n.Op)
	// One snapshot resolves every kid id: kid states were interned before
	// their ids were published, and the state list is append-only.
	states := e.table.States()
	sc.dyn = sc.dyn[:0]
	sc.key = append(sc.key[:0], packLR(n, ids))
	var w uint64
	for i, ri := range rules {
		r := &e.g.Rules[ri]
		c := grammar.Inf
		applicable := true
		for ki, kid := range n.Kids {
			if !states[ids[kid.Index]].Derives(r.Kids[ki]) {
				applicable = false
				break
			}
		}
		if applicable {
			m.CountDyn(1)
			c = e.dynFns[ri](n)
			if c >= grammar.Inf {
				c = grammar.Inf
			}
		}
		sc.dyn = append(sc.dyn, c)
		if i%2 == 0 {
			w = uint64(uint32(c))
		} else {
			sc.key = append(sc.key, w|uint64(uint32(c))<<32)
		}
	}
	if len(rules)%2 == 1 {
		sc.key = append(sc.key, w)
	}
}

// construct is the slow path: run the DP step once, into sc's vectors, and
// intern the result, which copies the vectors only if the state is new.
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
func (e *Engine) construct(op grammar.OpID, kids []*automaton.State, dynVals []grammar.Cost, m *metrics.Counters, sc *scratch) *automaton.State {
	automaton.Compute(e.g, op, kids, dynVals, e.deltaCap, m, sc.delta, sc.rule)
	s, _, err := e.table.InternBudget(sc.delta, sc.rule, m)
	if err != nil {
		panic(err)
	}
	return s
}

// MemoryBytes estimates the engine's current table footprint: interned
// states plus all memoized transition storage. Dense entries are 4 bytes
// (flat int32 state ids).
func (e *Engine) MemoryBytes() int {
	b := e.table.MemoryBytes()
	for op := range e.un {
		if rp := e.un[op].Load(); rp != nil {
			b += 4 * len(*rp)
		}
		if t := e.bin[op].Load(); t != nil {
			b += 4*len(t.cells) + 16
		}
		if t := e.dyn[op].Load(); t != nil {
			b += t.memoryBytes()
		}
	}
	b += 4 * len(e.leaf)
	return b
}
