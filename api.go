// Package repro is the public face of the reproduction of "Fast and
// Flexible Instruction Selection with On-Demand Tree-Parsing Automata"
// (Ertl, Casey, Gregg; PLDI 2006): BURS instruction selection with four
// interchangeable labeling engines —
//
//   - KindDP: iburg/lburg-style dynamic programming at selection time
//     (flexible, supports dynamic costs, slow per node);
//   - KindStatic: a burg-style offline automaton (fast per node, no
//     dynamic costs, tables built ahead of time — in-process, or by
//     cmd/iselgen and loaded from a blob, with zero construction cost
//     under traffic), served by the on-demand engine seeded with the
//     whole closure;
//   - KindOnDemand: the paper's contribution — the automaton is built
//     lazily at selection time, giving (warm) static-automaton speed
//     *and* dynamic costs;
//   - KindHybrid: the same on-demand engine seeded with the ahead-of-time
//     closure of the fixed operators, which then hit from the first
//     request (hybrid.go).
//
// Typical use (the v2 context-first surface):
//
//	m, _ := repro.LoadMachine("x86")
//	sel, _ := m.NewSelector(repro.KindOnDemand, repro.Options{})
//	unit, _ := m.CompileMinC(src)           // or m.ParseTree("ADD(REG[1], CNST[2])")
//	out, _ := sel.Compile(ctx, unit.Funcs[0].Forest)
//	fmt.Println(out.Asm, out.Cost)
//
// Compile and CompileUnit take a context.Context plus options:
// WithCounters(c) attributes this one call's work to c (the compilation
// server's per-client accounting), WithTrace(tr) stamps its stage
// boundaries into tr, and WithWorkers(n) spreads a unit's functions
// across n goroutines sharing the selector's one engine; Compile labels
// its one forest sequentially. Cancellation is cooperative: the reducer
// polls ctx.Done() every few hundred nodes and unit compilation checks
// between functions, so a cancelled call returns ctx.Err() within a
// bounded amount of work. A background context costs nothing on the
// warm path.
//
// For serving several machine descriptions from one process, Registry
// holds named, lazily-constructed, individually-warmed selectors (with
// optional automaton persistence across restarts); internal/server and
// cmd/iselserver are built on it.
//
// # Engines and the Labeler interface
//
// Every engine implements reduce.Labeler — Label plus the
// NumStates/NumTransitions/MemoryBytes table stats — and Selector
// dispatches exclusively through that interface. NewSelector builds one
// of the four kinds from two engines: dp.Labeler, and core.Engine, which
// serves KindOnDemand empty and KindStatic and KindHybrid seeded with an
// ahead-of-time closure (core.NewSeeded). Lower-level tooling reaches the
// engine through Selector.Labeler.
//
// # Concurrency
//
// Selectors are safe for concurrent use: Compile, CompileUnit and Label
// may be called from many goroutines sharing one selector. All built-in
// engines support concurrent labeling — the on-demand engine synchronizes
// its construct slow path internally (see package core), which is the
// paper's scenario extended to a parallel compilation server: one warm
// automaton serving every worker, each worker's misses warming the tables
// for all. CompileUnit with WithWorkers is the built-in driver for that
// shape; internal/server (fronted by cmd/iselserver) is the full
// compilation server built on a Registry of such selectors, using
// WithCounters and Snapshot to attribute each shared engine's work to
// individual clients and to report automaton warmth over a session.
// Only selector-wide reconfiguration (LoadAutomaton) must be serialized
// against in-flight compilation.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/emit"
	"repro/internal/freelist"
	"repro/internal/frontend"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/reduce"
	"repro/internal/telemetry"
)

// Re-exported core types, so API users can name them.
type (
	// Grammar is a validated, normal-form tree grammar.
	Grammar = grammar.Grammar
	// Cost is a rule or derivation cost.
	Cost = grammar.Cost
	// DynEnv binds dynamic-cost function names to implementations.
	DynEnv = grammar.DynEnv
	// DynNode is the node view dynamic-cost functions receive.
	DynNode = grammar.DynNode
	// Forest is a compilation unit of IR trees (or DAGs).
	Forest = ir.Forest
	// Node is an IR node.
	Node = ir.Node
	// Unit is a lowered MinC compilation unit.
	Unit = frontend.Unit
	// Counters are the deterministic work counters engines maintain.
	Counters = metrics.Counters
	// Builder constructs IR forests programmatically (trees, and DAGs via
	// NewDAGBuilder-style sharing through Machine.NewDAGBuilder).
	Builder = ir.Builder
	// Labeler is the engine interface every selector kind implements:
	// labeling plus automaton table statistics.
	Labeler = reduce.Labeler
	// Trace is a per-request stage timeline (lease, queue, label,
	// reduce, emit). Compile stamps it at stage boundaries under
	// WithTrace; the compilation server pools and aggregates them (see
	// internal/telemetry).
	Trace = telemetry.Trace
)

// Inf is the infinite cost (rule not applicable).
const Inf = grammar.Inf

// Kind selects a labeling engine.
type Kind string

// The three sides of the paper's comparison. KindHybrid (hybrid.go) is
// the fourth kind: the on-demand engine, seeded with the fixed operators'
// closure.
const (
	KindDP       Kind = "dp"
	KindStatic   Kind = "static"
	KindOnDemand Kind = "ondemand"
)

// Kinds lists the engine kinds NewSelector accepts: dp, static,
// ondemand, hybrid.
func Kinds() []Kind { return []Kind{KindDP, KindStatic, KindOnDemand, KindHybrid} }

// Machine is a loaded machine description: grammar plus dynamic-cost
// bindings.
type Machine struct {
	Name    string
	Grammar *Grammar
	Env     DynEnv
}

// Machines lists the built-in machine descriptions.
func Machines() []string { return md.Names() }

// LoadMachine loads a built-in machine description by name
// ("x86", "mips", "sparc", "alpha", "jit64", "demo").
func LoadMachine(name string) (*Machine, error) {
	d, err := md.Load(name)
	if err != nil {
		return nil, err
	}
	return &Machine{Name: name, Grammar: d.Grammar, Env: d.Env}, nil
}

// NewMachine builds a machine from a burg-style grammar source and an
// environment for its dynamic-cost names (env may be nil if the grammar
// has none).
func NewMachine(name, grammarSrc string, env DynEnv) (*Machine, error) {
	g, err := grammar.Parse(grammarSrc)
	if err != nil {
		return nil, err
	}
	if _, err := env.Bind(g); err != nil {
		return nil, err
	}
	if name != "" {
		g.Name = name
	}
	return &Machine{Name: g.Name, Grammar: g, Env: env}, nil
}

// ParseTree parses textual IR trees (see ir.ParseTrees syntax) against the
// machine's operator vocabulary.
func (m *Machine) ParseTree(src string) (*Forest, error) {
	return ir.ParseTrees(m.Grammar, src)
}

// NewBuilder returns a tree builder over the machine's operators.
func (m *Machine) NewBuilder() *Builder { return ir.NewBuilder(m.Grammar) }

// NewDAGBuilder returns a builder that value-numbers pure subtrees, so
// structurally identical subtrees are shared (DAG construction).
func (m *Machine) NewDAGBuilder() *Builder { return ir.NewDAGBuilder(m.Grammar) }

// CompileMinC parses and lowers a MinC program to IR forests (one per
// function).
func (m *Machine) CompileMinC(src string) (*Unit, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	return frontend.Lower(prog, m.Grammar)
}

// Options tunes selector construction.
type Options struct {
	// Metrics, when non-nil, receives the engine's event counts.
	Metrics *Counters
	// DeltaCap bounds relative costs in automaton states (default
	// automaton.DefaultDeltaCap). Only meaningful for the automaton kinds.
	DeltaCap Cost
	// MaxStates bounds the number of automaton states the on-demand engine
	// may materialize (0 = unlimited): the cap policy for pathological
	// grammars in long-lived servers. A compile whose labeling would grow
	// the state table past the budget fails with an error matching
	// ErrStateBudget (errors.Is); warm traffic over already-materialized
	// states keeps compiling at the cap (KindOnDemand, and KindHybrid past
	// its seeded states). For the table-backed kinds (KindStatic, KindHybrid)
	// it also bounds a closure computed at construction: a pruned closure
	// fails construction with truncation diagnostics.
	MaxStates int
	// PreloadPath, for the table-backed kinds (KindStatic, KindHybrid),
	// loads the ahead-of-time tables from this `.isel` blob (written by
	// cmd/iselgen) instead of computing the closure at construction — the
	// instant-warm serving path. The blob must match the machine's grammar
	// fingerprint.
	PreloadPath string
}

// ErrStateBudget is the typed error a compile fails with when
// Options.MaxStates is set and labeling would materialize more states than
// the budget allows. Match it with errors.Is; cmd/iselserver surfaces it
// as HTTP 503.
var ErrStateBudget = core.ErrStateBudget

// Selector is an instruction selector: a labeling engine plus the shared
// reducer and a free list of emitters. Selectors persist across Compile calls —
// for KindOnDemand that is the point: the automaton warms up over a
// compilation session. Selectors are safe for concurrent use (see the
// package documentation for the contract).
type Selector struct {
	kind    Kind
	machine *Machine

	eng reduce.Labeler
	rd  *reduce.Reducer
	// emitters recycles emit.Emitter instances across Compile calls.
	// Outputs are interned or copied out before an emitter returns to the
	// list, so per-call isolation is preserved.
	emitters freelist.List[emit.Emitter]
	// intern canonicalizes emitted assembly text across the selector's
	// recycled emitters: a warm Compile of previously seen code returns the
	// retained string instead of allocating a fresh copy — the last piece
	// of the zero-allocs-per-node warm Compile contract.
	intern *emit.Interner
}

// NewSelector builds a selector of the given kind (see Kinds).
//
// KindStatic fails for grammars with dynamic-cost rules — that is the
// limitation the paper lifts; use FixedMachine, KindHybrid or
// KindOnDemand.
func (m *Machine) NewSelector(kind Kind, opt Options) (*Selector, error) {
	var eng Labeler
	var err error
	switch kind {
	case KindDP:
		eng, err = dp.New(m.Grammar, m.Env, opt.Metrics)
	case KindStatic:
		eng, err = newStaticEngine(m, opt)
	case KindOnDemand:
		eng, err = core.New(m.Grammar, m.Env, opt.coreConfig())
	case KindHybrid:
		eng, err = newSeededEngine(m, opt)
	default:
		return nil, fmt.Errorf("repro: unknown selector kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	rd, err := reduce.New(m.Grammar, m.Env, opt.Metrics)
	if err != nil {
		return nil, err
	}
	s := &Selector{kind: kind, machine: m, eng: eng, rd: rd, intern: emit.NewInterner(0)}
	// All emitters of one selector run one compiled program and share its
	// interner, so repeated compiles of the same functions return the same
	// Asm string without a per-call copy.
	prog, intern := emit.Compile(m.Grammar), s.intern
	s.emitters.New = func() *emit.Emitter {
		e := prog.NewEmitter()
		e.SetInterner(intern)
		return e
	}
	return s, nil
}

// coreConfig is the on-demand engine configuration opt asks for, for
// KindOnDemand and the seeded kinds alike.
func (opt Options) coreConfig() core.Config {
	return core.Config{
		DeltaCap: opt.DeltaCap, Metrics: opt.Metrics, MaxStates: opt.MaxStates,
	}
}

// FixedMachine returns a copy of the machine with all dynamic-cost rules
// removed — the grammar an offline automaton can tabulate, and the
// baseline for the code-quality experiment.
func (m *Machine) FixedMachine() (*Machine, error) {
	g, err := m.Grammar.StripDynamic()
	if err != nil {
		return nil, err
	}
	return &Machine{Name: m.Name + ".fixed", Grammar: g, Env: nil}, nil
}

// Kind returns the selector's engine kind.
func (s *Selector) Kind() Kind { return s.kind }

// Machine returns the selector's machine.
func (s *Selector) Machine() *Machine { return s.machine }

// Labeler exposes the selector's engine through the common interface, for
// lower-level tooling and engine-specific type assertions.
func (s *Selector) Labeler() Labeler { return s.eng }

// Output is the result of compiling one forest.
type Output struct {
	// Asm is the emitted assembly text.
	Asm string
	// Instructions is the number of emitted instructions.
	Instructions int
	// Cost is the total cost of the selected derivation.
	Cost Cost
}

// Label runs only the labeling pass and returns the labeling for use with
// lower-level tooling. Most callers want Compile. The returned labeling is
// caller-owned: the engine reuses its buffers if it is handed back via
// Labeler().ReleaseLabeling, but keeping it is always safe.
func (s *Selector) Label(f *Forest) (reduce.Labeling, error) {
	return s.labelChecked(f, nil)
}

// CompileOption tunes one Compile or CompileUnit call. Options are plain
// values, so passing them allocates nothing; each sets one setting, and
// a later option of the same kind overrides an earlier one.
type CompileOption struct {
	counters *Counters
	// trace, when non-nil, receives stage-boundary stamps (label,
	// reduce, emit). A nil trace costs one pointer test per boundary.
	trace   *Trace
	workers int
}

// WithCounters attributes this one call's labeling and reduction events to
// c instead of the selector's configured Options.Metrics sink. c may be a
// fresh Counters per call; callers merge deltas with Counters.Add. This is
// the session hook the compilation server (internal/server) uses to
// account one shared warm engine's work to individual clients.
func WithCounters(c *Counters) CompileOption { return CompileOption{counters: c} }

// WithTrace records this call's stage boundaries into tr, which must
// have been Begin()-stamped (telemetry.TracePool does). The instrument
// cost is one monotonic clock read per stage boundary — the warm path
// stays allocation-free, which alloc_test.go and the PF trajectory's
// telemetry column gate.
func WithTrace(tr *Trace) CompileOption { return CompileOption{trace: tr} }

// WithWorkers spreads a CompileUnit call's functions across n goroutines
// sharing the selector's one engine (n <= 0 means GOMAXPROCS; 1 is
// sequential); outputs are identical to sequential compilation. It does
// not split a forest: Compile, and each function of a unit, labels
// sequentially, since a warm node costs one table lookup and no corpus
// forest is wide enough for a fan-out to pay for its goroutines.
func WithWorkers(n int) CompileOption {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return CompileOption{workers: n}
}

// resolveOpts merges a call's options into one setting each.
func resolveOpts(opts []CompileOption) CompileOption {
	var cfg CompileOption
	for _, o := range opts {
		if o.counters != nil {
			cfg.counters = o.counters
		}
		if o.trace != nil {
			cfg.trace = o.trace
		}
		if o.workers != 0 {
			cfg.workers = o.workers
		}
	}
	return cfg
}

// Compile selects instructions for f: label, reduce, emit. It is the
// single forest-level entry point; warm, it allocates exactly its
// *Output, with or without options.
//
// Cancellation is cooperative: ctx is checked before labeling and then at
// reducer checkpoints every few hundred nodes, so a cancelled compile of
// an arbitrarily large forest returns ctx.Err() within a bounded amount of
// work. context.Background() costs nothing on the warm path.
func (s *Selector) Compile(ctx context.Context, f *Forest, opts ...CompileOption) (*Output, error) {
	return s.compile(ctx, f, resolveOpts(opts))
}

func (s *Selector) compile(ctx context.Context, f *Forest, cfg CompileOption) (*Output, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := cfg.trace
	lab, err := s.labelChecked(f, cfg.counters)
	tr.Mark(telemetry.StageLabel)
	if err != nil {
		return nil, err
	}
	// The labeling never leaves this call, so its buffers go back to the
	// engine; labelings returned to API callers (Label) are theirs.
	defer s.eng.ReleaseLabeling(lab)
	em := s.emitters.Get()
	defer s.emitters.Put(em)
	em.Reset()
	// StageReduce includes the emission visitor callbacks the reducer
	// interleaves — splitting them out would need a per-node stamp the
	// warm path can't afford. StageEmit is finalization only: assembly
	// interning and instruction accounting.
	cost, err := s.rd.CoverContext(ctx, f, lab, em.Visitor(), cfg.counters)
	tr.Mark(telemetry.StageReduce)
	if err != nil {
		return nil, err
	}
	out := &Output{Asm: em.Asm(), Instructions: em.Instructions(), Cost: cost}
	tr.Mark(telemetry.StageEmit)
	return out, nil
}

// labelChecked labels f, counting its events into m (nil: the engine's
// configured sink) and converting the engine's typed state-budget panic
// (Options.MaxStates exceeded; see core.Config.MaxStates) into an error.
// Any other panic — a user dynamic-cost function blowing up — propagates
// to the caller's containment boundary unchanged.
func (s *Selector) labelChecked(f *Forest, m *Counters) (lab reduce.Labeling, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, ErrStateBudget) {
				lab, err = nil, e
				return
			}
			panic(r)
		}
	}()
	return s.eng.LabelMetered(f, m), nil
}

// CompileUnit compiles every function of unit, returning one Output per
// function in unit order. With WithWorkers(n > 1) the functions are
// compiled across n goroutines sharing this selector (and therefore one
// engine) — the parallel compilation driver; outputs are identical to the
// sequential ones because engines guarantee the same labels regardless of
// worker interleaving (states are content-addressed). The first error by
// function order is returned.
//
// ctx is checked between functions (and inside each compile at the
// reducer checkpoints), so cancelling mid-unit stops promptly; queued
// functions fail with ctx.Err().
func (s *Selector) CompileUnit(ctx context.Context, u *Unit, opts ...CompileOption) ([]*Output, error) {
	cfg := resolveOpts(opts)
	n := len(u.Funcs)
	workers := min(cfg.workers, n)
	outs := make([]*Output, n)
	if workers <= 1 {
		for i := range u.Funcs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, err := s.compile(ctx, u.Funcs[i].Forest, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", u.Funcs[i].Name, err)
			}
			outs[i] = out
		}
		return outs, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// The per-function checkpoint of the sequential loop:
				// after cancellation, remaining claims fail fast instead
				// of compiling.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				outs[i], errs[i] = s.compile(ctx, u.Funcs[i].Forest, cfg)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.Funcs[i].Name, err)
		}
	}
	return outs, nil
}

// Snapshot is a point-in-time view of a selector's automaton warmth. The
// compilation server samples it over a session to report the paper's
// amortization story end to end: states and transitions climb while the
// automaton is cold and flatten as every client's trees hit warm tables.
type Snapshot struct {
	Kind        Kind
	States      int
	Transitions int
	MemoryBytes int
}

// Snapshot captures the selector's current automaton warmth. It is safe
// to call concurrently with compilation (the counts are monotonic and read
// atomically, though States and Transitions are sampled independently).
func (s *Selector) Snapshot() Snapshot {
	return Snapshot{
		Kind:        s.kind,
		States:      s.eng.NumStates(),
		Transitions: s.eng.NumTransitions(),
		MemoryBytes: s.eng.MemoryBytes(),
	}
}

// States reports the number of automaton states (materialized so far for
// KindOnDemand, total for KindStatic, 0 for KindDP).
func (s *Selector) States() int { return s.eng.NumStates() }

// Transitions reports memoized/tabulated transition entries (0 for DP).
func (s *Selector) Transitions() int { return s.eng.NumTransitions() }

// MemoryBytes estimates the engine's table footprint (0 for DP).
func (s *Selector) MemoryBytes() int { return s.eng.MemoryBytes() }

// SupportsPersistence reports whether the selector can save and restore
// its automaton: only KindOnDemand selectors can. The table-backed kinds
// rebuild from their table source instead — a hybrid's saved automaton
// would repeat every seeded grid cell, and could not load, since Load
// requires a fresh engine — and DP has no automaton. Registry.SaveAll and
// Registry.Swap use it to skip the other kinds instead of failing.
func (s *Selector) SupportsPersistence() bool { return s.kind == KindOnDemand }

// persistent returns the on-demand engine behind SaveAutomaton and
// LoadAutomaton, or an error for the other kinds.
func (s *Selector) persistent() (*core.Engine, error) {
	if !s.SupportsPersistence() {
		return nil, fmt.Errorf("repro: %s selectors do not support automaton persistence", s.kind)
	}
	return s.eng.(*core.Engine), nil
}

// SaveAutomaton persists the selector's automaton so a later run can
// start warm (see core.Engine.Save). It fails unless SupportsPersistence.
func (s *Selector) SaveAutomaton(w io.Writer) error {
	e, err := s.persistent()
	if err != nil {
		return err
	}
	return e.Save(w)
}

// LoadAutomaton restores a saved automaton into a freshly created
// selector for the same machine description. It must complete before the
// selector is shared across goroutines, and fails unless
// SupportsPersistence.
func (s *Selector) LoadAutomaton(r io.Reader) error {
	e, err := s.persistent()
	if err != nil {
		return err
	}
	return e.Load(r)
}
