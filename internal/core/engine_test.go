package core

import (
	"testing"
	"testing/quick"

	"repro/internal/automaton"
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
)

// checkAgainstDP is the oracle check: the on-demand automaton must assign
// every node a state whose rules equal the DP labeler's optimal rules and
// whose deltas equal the DP costs rebased to the row minimum.
func checkAgainstDP(t *testing.T, d md.Desc, f *ir.Forest, cfg Config) {
	t.Helper()
	e, err := New(d.Grammar, d.Env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareLabelings(t, d.Grammar, f, l.LabelResult(f), e.LabelStates(f))
}

func compareLabelings(t *testing.T, g *grammar.Grammar, f *ir.Forest, want *dp.Result, got *automaton.Labeling) {
	t.Helper()
	for _, n := range f.Nodes {
		s := got.StateAt(n)
		row := want.Costs[n.Index]
		min := grammar.Inf
		for _, c := range row {
			if c < min {
				min = c
			}
		}
		for nt := range row {
			if want.Rules[n.Index][nt] != s.Rule[nt] {
				t.Fatalf("node %d (%s) nt %s: on-demand rule %s != DP rule %s",
					n.Index, g.OpName(n.Op), g.NTName(grammar.NT(nt)),
					g.RuleName(int(s.Rule[nt])), g.RuleName(int(want.Rules[n.Index][nt])))
			}
			wantDelta := grammar.Inf
			if !row[nt].IsInf() {
				wantDelta = row[nt] - min
			}
			if s.Delta[nt] != wantDelta {
				t.Fatalf("node %d nt %s: delta %d != DP relative %d",
					n.Index, g.NTName(grammar.NT(nt)), s.Delta[nt], wantDelta)
			}
		}
	}
}

func TestMatchesDPOnTrees(t *testing.T) {
	d := md.MustLoad("demo")
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 7, Trees: 300, MaxDepth: 8})
	checkAgainstDP(t, d, f, Config{})
}

func TestMatchesDPOnDAGs(t *testing.T) {
	d := md.MustLoad("demo")
	// DAG sharing makes the read-modify-write dynamic rule actually fire
	// (the store and load addresses become the same node).
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 9, Trees: 300, MaxDepth: 7, Share: true, MaxLeafVal: 3})
	checkAgainstDP(t, d, f, Config{})
}

func TestMatchesDPForceHash(t *testing.T) {
	d := md.MustLoad("demo")
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 13, Trees: 200, MaxDepth: 7, Share: true, MaxLeafVal: 3})
	checkAgainstDP(t, d, f, Config{ForceHash: true})
}

// TestMatchesDPQuick: adversarial shapes via testing/quick, both tree and
// DAG inputs, against the DP oracle.
func TestMatchesDPQuick(t *testing.T) {
	d := md.MustLoad("demo")
	l, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, trees uint8, share bool) bool {
		f := ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: seed, Trees: int(trees%20) + 1, MaxDepth: 7, Share: share, MaxLeafVal: 4,
		})
		e, err := New(d.Grammar, d.Env, Config{})
		if err != nil {
			return false
		}
		want := l.LabelResult(f)
		got := e.LabelStates(f)
		for _, n := range f.Nodes {
			s := got.StateAt(n)
			for nt := range want.Costs[n.Index] {
				if want.Rules[n.Index][nt] != s.Rule[nt] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWarmupConvergence is the paper's central behaviour: after the
// automaton has seen a workload, relabeling similar input constructs no
// new states or transitions, and every probe hits.
func TestWarmupConvergence(t *testing.T) {
	d := md.MustLoad("demo")
	m := &metrics.Counters{}
	e, err := New(d.Grammar, d.Env, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	f := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 21, Trees: 500, MaxDepth: 8})
	e.LabelStates(f)
	states, trans := e.NumStates(), e.NumTransitions()
	if states == 0 || trans == 0 {
		t.Fatal("nothing materialized")
	}
	m.Reset()
	e.LabelStates(f)
	if e.NumStates() != states || e.NumTransitions() != trans {
		t.Errorf("relabeling grew the automaton: %d->%d states, %d->%d transitions",
			states, e.NumStates(), trans, e.NumTransitions())
	}
	if m.TableMisses != 0 {
		t.Errorf("warm relabeling had %d misses", m.TableMisses)
	}
	if m.TableProbes != int64(f.NumNodes()) {
		t.Errorf("warm probes = %d, want %d", m.TableProbes, f.NumNodes())
	}
	if m.RulesExamined != 0 {
		t.Errorf("warm labeling must do no DP work, examined %d rules", m.RulesExamined)
	}
}

// TestOnDemandSubsetOfStatic: for a fixed-cost grammar, the lazily built
// automaton must materialize a subset of the full automaton's states
// (pointwise-identical vectors), which is what the "fraction of automaton
// touched" experiment reports.
func TestOnDemandSubsetOfStatic(t *testing.T) {
	d := md.MustLoad("demo")
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	ts, _, err := automaton.GenerateTables(g, automaton.StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := automaton.ValidateTables(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := ir.RandomForest(g, ir.RandomConfig{Seed: 31, Trees: 400, MaxDepth: 8})
	e.LabelStates(f)
	if e.NumStates() > full.Len() {
		t.Errorf("on-demand states %d exceed full automaton %d", e.NumStates(), full.Len())
	}
	// Every on-demand state must exist in the full automaton.
	fullKeys := map[string]bool{}
	for _, s := range full.States() {
		fullKeys[stateSig(s)] = true
	}
	for _, s := range e.Table().States() {
		if !fullKeys[stateSig(s)] {
			t.Errorf("on-demand state %v not in the full automaton", s)
		}
	}
}

func stateSig(s *automaton.State) string {
	sig := ""
	for i := range s.Delta {
		sig += string(rune(s.Delta[i])) + "/" + string(rune(s.Rule[i])) + ";"
	}
	return sig
}

func TestDynSignaturesCreateDistinctStates(t *testing.T) {
	d := md.MustLoad("demo")
	g := d.Grammar
	e, err := New(g, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Same child-state tuple at Store, different dynamic outcome: the DAG
	// version satisfies the RMW constraint, the tree version does not.
	bTree := ir.NewBuilder(g)
	a1 := bTree.Leaf("Reg", 1)
	a2 := bTree.Leaf("Reg", 1)
	v := bTree.Leaf("Reg", 2)
	tre := bTree.Node("Store", a1, bTree.Node("Plus", bTree.Node("Load", a2), v))
	bTree.Root(tre)
	fTree := bTree.Finish()

	bDag := ir.NewBuilder(g)
	a := bDag.Leaf("Reg", 1)
	v2 := bDag.Leaf("Reg", 2)
	dag := bDag.Node("Store", a, bDag.Node("Plus", bDag.Node("Load", a), v2))
	bDag.Root(dag)
	fDag := bDag.Finish()

	lt := e.LabelStates(fTree)
	ld := e.LabelStates(fDag)
	st := lt.StateAt(tre)
	sd := ld.StateAt(dag)
	if st == sd {
		t.Fatal("different dynamic outcomes must give different states")
	}
	stmt := g.MustNT("stmt")
	if name := g.RuleName(int(sd.Rule[stmt])); name != "6c" {
		t.Errorf("DAG store rule = %s, want 6c", name)
	}
	if name := g.RuleName(int(st.Rule[stmt])); name != "5" {
		t.Errorf("tree store rule = %s, want 5", name)
	}
	// Relabeling both again must reuse the two memoized transitions.
	n := e.NumTransitions()
	e.LabelStates(fTree)
	e.LabelStates(fDag)
	if e.NumTransitions() != n {
		t.Error("dynamic transitions were not memoized")
	}
}

func TestEngineAccessors(t *testing.T) {
	d := md.MustLoad("demo")
	m := &metrics.Counters{}
	e, err := New(d.Grammar, d.Env, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if e.Grammar() != d.Grammar {
		t.Error("Grammar accessor")
	}
	f := ir.MustParseTree(d.Grammar, "Store(Reg, Reg)")
	e.LabelStates(f)
	if e.Table().Len() != e.NumStates() {
		t.Error("table accessor inconsistent")
	}
	if e.MemoryBytes() <= 0 {
		t.Error("memory estimate must be positive")
	}
	if m.NodesLabeled != 3 {
		t.Errorf("nodes = %d, want 3", m.NodesLabeled)
	}
}

func TestUnboundEnv(t *testing.T) {
	d := md.MustLoad("demo")
	if _, err := New(d.Grammar, nil, Config{}); err == nil {
		t.Error("expected error for unbound dynamic-cost names")
	}
}

// TestColdVsWarmWork: the first pass over a workload pays construction
// (misses); a warm pass over fresh but similar input must be almost pure
// lookups — the amortization claim at the heart of the paper.
func TestColdVsWarmWork(t *testing.T) {
	d := md.MustLoad("demo")
	m := &metrics.Counters{}
	e, err := New(d.Grammar, d.Env, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	cold := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 41, Trees: 400, MaxDepth: 8})
	e.Label(cold)
	coldMisses := m.TableMisses
	if coldMisses == 0 {
		t.Fatal("cold pass must construct transitions")
	}
	m.Reset()
	warm := ir.RandomForest(d.Grammar, ir.RandomConfig{Seed: 42, Trees: 400, MaxDepth: 8})
	e.Label(warm)
	if m.TableMisses*20 > m.TableProbes {
		t.Errorf("warm pass misses %d of %d probes; automaton did not converge",
			m.TableMisses, m.TableProbes)
	}
}
