package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/automaton"
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestFixedGrammarNoDynWork: on a grammar without dynamic rules, the warm
// fast path must never call a dynamic function and must be pure dense
// lookups (no hash maps populated).
func TestFixedGrammarNoDynWork(t *testing.T) {
	d := md.MustLoad("demo")
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	m := &metrics.Counters{}
	e, err := New(g, nil, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	f := ir.RandomForest(g, ir.RandomConfig{Seed: 4, Trees: 100, MaxDepth: 7})
	e.Label(f)
	if m.DynEvals != 0 {
		t.Errorf("dyn evals = %d on a fixed grammar", m.DynEvals)
	}
	for op := range e.ops {
		if tab := e.ops[op].dyn.Load(); tab != nil && tab.entries() != 0 {
			t.Errorf("hash path used for op %s on a fixed grammar", g.OpName(grammar.OpID(op)))
		}
	}
}

// TestForceHashUsesNoDenseTables is the inverse: with ForceHash, the leaf
// cells and class grids stay empty, for an empty engine and for one
// seeded with the closure alike. A seeded engine counts only the cells it
// adopts, so the ForceHash seed starts at zero transitions (a plain seed
// at the table set's count) and memoizes its transitions on the hash
// path, labeling like DP without a new state.
func TestForceHashUsesNoDenseTables(t *testing.T) {
	d := md.MustLoad("demo")
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	ts, _, err := automaton.GenerateTables(g, automaton.StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSeeded(g, nil, Config{}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumTransitions() != ts.TransitionEntries() {
		t.Errorf("seeded engine counts %d transitions, the table set has %d", plain.NumTransitions(), ts.TransitionEntries())
	}
	empty, err := New(g, nil, Config{ForceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeeded(g, nil, Config{ForceHash: true}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.NumTransitions() != 0 {
		t.Errorf("ForceHash seed counts %d transitions before labeling, want 0", seeded.NumTransitions())
	}
	l, err := dp.New(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := ir.RandomForest(g, ir.RandomConfig{Seed: 4, Trees: 50, MaxDepth: 6})
	for _, e := range []*Engine{empty, seeded} {
		compareLabelings(t, g, f, l.LabelResult(f), e.LabelStates(f))
		for op := range e.ops {
			if e.ops[op].leaf.Load() >= 0 || e.ops[op].grid.Load() != nil {
				t.Fatalf("dense table populated for op %s under ForceHash", g.OpName(grammar.OpID(op)))
			}
		}
		if e.NumStates() == 0 || e.NumTransitions() == 0 {
			t.Fatal("nothing labeled")
		}
	}
	if seeded.NumStates() != ts.NumStates() {
		t.Errorf("ForceHash seed grew from %d to %d states", ts.NumStates(), seeded.NumStates())
	}
}

// TestDynPanicKeepsPoolHealthy: a panicking user dynamic-cost function
// must not leak the pooled dynScratch — the Put is deferred — and the
// panic propagates to the caller's containment boundary (the compilation
// server recovers it per job). After any number of panics the engine
// labels correctly and the warm dynamic path is still allocation-free,
// which is only possible if the scratch kept flowing back to the pool.
func TestDynPanicKeepsPoolHealthy(t *testing.T) {
	g := grammar.MustParse(`%name boom
%start stmt
%term Asgn(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn boom)
stmt: Asgn(reg, reg) (1)
`)
	env := grammar.DynEnv{"boom": func(n grammar.DynNode) grammar.Cost {
		if n.Value() == 13 {
			panic("unlucky immediate")
		}
		return 1
	}}
	e, err := New(g, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := ir.MustParseTree(g, "Asgn(Reg[1], Cnst[13])")
	good := ir.MustParseTree(g, "Asgn(Reg[1], Cnst[7])")
	for i := 0; i < 8; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected the dynamic-cost panic to propagate")
				}
			}()
			e.Label(bad)
		}()
	}
	lab := e.LabelStates(good)
	if lab.RuleAt(good.Roots[0], g.Start) < 0 {
		t.Fatal("engine cannot label after contained panics")
	}
	e.ReleaseLabeling(lab)
	e.ReleaseLabeling(e.LabelStates(good)) // fully warm
	allocs := testing.AllocsPerRun(50, func() {
		e.ReleaseLabeling(e.LabelStates(good))
	})
	t.Logf("warm dynamic label after panics: %.2f allocs/op", allocs)
	if !raceEnabled && allocs != 0 {
		t.Errorf("warm dynamic label allocates %.2f/op after panics, want 0 (scratch pool leaked?)", allocs)
	}
}

// TestDeltaCapMatchesDefaultOnRealGrammar: realistic grammars have tiny
// relative costs, so even a small cap must not change labeling results
// (Proebsting's bounded-delta argument).
func TestDeltaCapMatchesDefaultOnRealGrammar(t *testing.T) {
	d := md.MustLoad("demo")
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 77, Trees: 200, MaxDepth: 7, Share: true, MaxLeafVal: 3})
	e1, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(d.Grammar, d.Env, Config{DeltaCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	l1 := e1.LabelStates(f)
	l2 := e2.LabelStates(f)
	for _, n := range f.Nodes {
		for nt := 0; nt < d.Grammar.NumNonterms(); nt++ {
			if l1.StateAt(n).Rule[nt] != l2.StateAt(n).Rule[nt] {
				t.Fatalf("node %d nt %d: cap changed the selected rule", n.Index, nt)
			}
		}
	}
	if e1.NumStates() != e2.NumStates() {
		t.Errorf("cap changed state count: %d vs %d", e1.NumStates(), e2.NumStates())
	}
}

// TestEnginePersistsAcrossGrammarsOfOps: two engines over the same grammar
// are independent — no shared global state.
func TestEnginesIndependent(t *testing.T) {
	d := md.MustLoad("demo")
	e1, _ := New(d.Grammar, d.Env, Config{})
	e2, _ := New(d.Grammar, d.Env, Config{})
	f := ir.MustParseTree(d.Grammar, "Store(Reg, Reg)")
	e1.Label(f)
	if e2.NumStates() != 0 || e2.NumTransitions() != 0 {
		t.Error("engines share state")
	}
}

// TestUnaryDenseGrowth: unary transitions indexed by a late (high-id)
// child state must grow the dense row correctly.
func TestUnaryDenseGrowth(t *testing.T) {
	g := grammar.MustParse(`
%term A(0) B(0) C(0) U(1)
%start x
x: A (1)
x: B (2)
x: C (3)
x: U(x) (1)
`)
	e, err := New(g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := dp.New(g, nil, nil)
	// Touch leaves in an order that makes U's first dense index nonzero.
	for _, src := range []string{"U(C)", "U(B)", "U(A)", "U(U(U(C)))"} {
		f := ir.MustParseTree(g, src)
		got := e.LabelStates(f)
		want := l.LabelResult(f)
		for _, n := range f.Nodes {
			for nt := 0; nt < g.NumNonterms(); nt++ {
				if want.Rules[n.Index][nt] != got.StateAt(n).Rule[nt] {
					t.Fatalf("%s: node %d disagrees with DP", src, n.Index)
				}
			}
		}
	}
}

// TestDenseBoundRoutesToHash: fixed-operator transitions with a child
// class past the grid bound take the operator's hash table instead of
// sizing a grid by that class. With the bound lowered below the x86
// corpus's class counts, labels still match DP and no grid outgrows the
// bound; loading a saved automaton — saved under the same bound, or
// under the default one with grid cells past it — restores every
// transition warm, the ones past the bound into the hash tables.
func TestDenseBoundRoutesToHash(t *testing.T) {
	const bound = 4
	d := md.MustLoad("x86")
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(d.Grammar) {
		fs = append(fs, c.Forests()...)
	}
	newEngine := func(m *metrics.Counters) *Engine {
		e, err := New(d.Grammar, d.Env, Config{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		e.maxClasses = bound
		return e
	}
	ref, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBounded := func(what string, e *Engine) {
		t.Helper()
		hashed := 0
		for op := range e.ops {
			name := d.Grammar.OpName(grammar.OpID(op))
			if g := e.ops[op].grid.Load(); g != nil && (g.rows > bound || g.cols > bound) {
				t.Errorf("%s, op %s: %dx%d grid past the bound %d", what, name, g.rows, g.cols, bound)
			}
			if tab := e.ops[op].dyn.Load(); tab != nil && !d.Grammar.HasDynRules(grammar.OpID(op)) {
				hashed += tab.entries()
			}
		}
		if hashed == 0 {
			t.Fatalf("%s: no fixed-operator transition took the hash path", what)
		}
	}
	saved := map[string]*Engine{"bounded": newEngine(nil)}
	if saved["default bound"], err = New(d.Grammar, d.Env, Config{}); err != nil {
		t.Fatal(err)
	}
	for what, e := range saved {
		for _, f := range fs {
			compareLabelings(t, d.Grammar, f, ref.LabelResult(f), e.LabelStates(f))
		}
		if e.NumStates() <= bound {
			t.Fatalf("%d states cannot open classes past the bound %d", e.NumStates(), bound)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m := &metrics.Counters{}
		restored := newEngine(m)
		if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		checkBounded("restored from "+what, restored)
		for _, f := range fs {
			compareLabelings(t, d.Grammar, f, ref.LabelResult(f), restored.LabelStates(f))
		}
		if m.TableMisses != 0 {
			t.Errorf("restored from %s: %d misses on the corpus it was saved after", what, m.TableMisses)
		}
	}
	checkBounded("labeled", saved["bounded"])
}

// TestOnDemandEqualsStaticStateCount: driving the on-demand engine over
// inputs that cover the whole tree space of a tiny grammar must
// materialize exactly the full automaton.
func TestOnDemandSaturatesTinyGrammar(t *testing.T) {
	d := md.MustLoad("demo")
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := automaton.GenerateTables(g, automaton.StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Deep random forests over a 4-operator grammar cover everything.
	for seed := int64(0); seed < 30; seed++ {
		e.Label(ir.RandomForest(g, ir.RandomConfig{Seed: seed, Trees: 80, MaxDepth: 9}))
	}
	if e.NumStates() != full.States {
		t.Errorf("saturated on-demand has %d states, full automaton %d",
			e.NumStates(), full.States)
	}
}

func TestMemoryGrowsMonotonically(t *testing.T) {
	d := md.MustLoad("demo")
	e, _ := New(d.Grammar, d.Env, Config{})
	prev := e.MemoryBytes()
	for seed := int64(0); seed < 5; seed++ {
		e.Label(ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: seed, Trees: 30, MaxDepth: 6}))
		cur := e.MemoryBytes()
		if cur < prev {
			t.Fatalf("memory shrank: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

// TestSeededEngine: an engine seeded with a fixed-cost grammar's closure
// labels like an empty one without a single miss or new state, Load
// refuses it (it is not fresh), and Config.MaxStates bounds only growth
// past the seeds: a budget below the seeded count still constructs, and
// the first on-demand state then fails with ErrStateBudget.
func TestSeededEngine(t *testing.T) {
	d := md.MustLoad("x86")
	fixed, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	var forests []*ir.Forest
	for _, c := range workload.MustCompileAll(fixed) {
		forests = append(forests, c.Forests()...)
	}
	closure := func(g *grammar.Grammar) *automaton.TableSet {
		ts, _, err := automaton.GenerateTables(g, automaton.StaticConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	m := &metrics.Counters{}
	seeded, err := NewSeeded(fixed, nil, Config{Metrics: m}, closure(fixed))
	if err != nil {
		t.Fatal(err)
	}
	states, trans := seeded.NumStates(), seeded.NumTransitions()
	empty, _ := New(fixed, nil, Config{})
	for _, f := range forests {
		a, b := seeded.LabelStates(f), empty.LabelStates(f)
		for _, n := range f.Nodes {
			for nt := range a.StateAt(n).Rule {
				if a.RuleAt(n, grammar.NT(nt)) != b.RuleAt(n, grammar.NT(nt)) {
					t.Fatalf("seeded labeling differs at node %d", n.Index)
				}
			}
		}
	}
	if m.TableMisses != 0 || seeded.NumStates() != states || seeded.NumTransitions() != trans {
		t.Errorf("fixed traffic on a seeded engine: %d misses, states %d -> %d, transitions %d -> %d; want none",
			m.TableMisses, states, seeded.NumStates(), trans, seeded.NumTransitions())
	}
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := seeded.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Load into a seeded engine must fail")
	}

	ts := closure(d.Grammar)
	tight, err := NewSeeded(d.Grammar, d.Env, Config{MaxStates: 1}, ts)
	if err != nil {
		t.Fatalf("seeding %d states under MaxStates 1: %v", ts.NumStates(), err)
	}
	func() {
		defer func() {
			r := recover()
			if err, ok := r.(error); !ok || !errors.Is(err, ErrStateBudget) {
				t.Errorf("dynamic traffic past the seeds: recovered %v, want ErrStateBudget", r)
			}
		}()
		for _, c := range workload.MustCompileAll(d.Grammar) {
			for _, f := range c.Forests() {
				tight.LabelStates(f)
			}
		}
	}()
}
