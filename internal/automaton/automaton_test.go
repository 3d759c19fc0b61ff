package automaton

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
)

// fixedDemo is the running example without its dynamic rule: the grammar an
// offline generator can tabulate.
func fixedDemo(t testing.TB) *grammar.Grammar {
	t.Helper()
	d := md.MustLoad("demo")
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// closure is a generated table set with the states it describes.
type closure struct {
	ts     *TableSet
	st     GenStats
	states []*State
}

// generate computes g's closure and validates it, failing the test on
// any error.
func generate(t testing.TB, g *grammar.Grammar, cfg StaticConfig) *closure {
	t.Helper()
	ts, st, err := GenerateTables(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err := ValidateTables(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	return &closure{ts: ts, st: st, states: table.States()}
}

// label assigns every node of f its state by lookup in the closure's own
// Leaf, Mu, T1 and T2 tables, counting one node and one probe per node
// into m (nil is fine): the labeling any engine serving the closure must
// reproduce, computed with no engine at all.
func (c *closure) label(f *ir.Forest, m *metrics.Counters) []*State {
	ts := c.ts
	ids := make([]int32, len(f.Nodes))
	out := make([]*State, len(f.Nodes))
	for i, n := range f.Nodes {
		m.CountNode()
		m.CountProbe(false)
		op := n.Op
		switch len(n.Kids) {
		case 0:
			ids[i] = ts.Leaf[op]
		case 1:
			ids[i] = ts.T1[op][ts.Mu[op][0][ids[n.Kids[0].Index]]]
		default:
			r0 := ts.Mu[op][0][ids[n.Kids[0].Index]]
			r1 := ts.Mu[op][1][ids[n.Kids[1].Index]]
			ids[i] = ts.T2[op][r0*ts.NReps[op][1]+r1]
		}
		out[i] = c.states[ids[i]]
	}
	return out
}

// TestGenerateRejectsDynamic: offline generation cannot tabulate
// dynamic-cost rules. GenerateTables leaves every dynamic operator to
// serve time — no leaf state, no classes, no transitions — and refuses a
// grammar whose every leaf operator is dynamic with ErrNoFixedClosure.
// (The static kind refuses any grammar with dynamic rules outright.)
func TestGenerateRejectsDynamic(t *testing.T) {
	d := md.MustLoad("demo")
	g := d.Grammar
	c := generate(t, g, StaticConfig{})
	dynOps := 0
	for op := range g.Ops {
		if !g.HasDynRules(grammar.OpID(op)) {
			continue
		}
		dynOps++
		ts := c.ts
		if ts.Leaf[op] != -1 || ts.NReps[op] != [2]int32{} || len(ts.T1[op]) != 0 || len(ts.T2[op]) != 0 {
			t.Errorf("dynamic operator %s was tabulated", g.OpName(grammar.OpID(op)))
		}
	}
	if dynOps == 0 {
		t.Fatal("demo grammar has no dynamic operator")
	}
	alldyn := grammar.MustParse(`
%name alldyn
%start stmt
%term L(0) S(1)

reg:  L      = 1 (dyn lc) "l%d"
stmt: S(reg) = 2 (1) "s %0"
`)
	if _, _, err := GenerateTables(alldyn, StaticConfig{}); !errors.Is(err, ErrNoFixedClosure) {
		t.Errorf("every leaf operator dynamic: err = %v, want ErrNoFixedClosure", err)
	}
}

func TestGenerateDemo(t *testing.T) {
	g := fixedDemo(t)
	c := generate(t, g, StaticConfig{})
	// The running example's automaton has a handful of states (the
	// literature's figure shows 6 for the constraint-free grammar).
	if c.st.States < 4 || c.st.States > 16 {
		t.Errorf("states = %d, expected a small automaton", c.st.States)
	}
	if c.ts.TransitionEntries() == 0 {
		t.Error("no transitions generated")
	}
	if c.st.States != c.ts.NumStates() || c.st.States != len(c.states) ||
		c.st.TransitionsComputed != c.ts.TransitionEntries() || c.st.TableBytes <= 0 {
		t.Errorf("generation stats inconsistent with the tables: %+v, %d states, %d transition entries",
			c.st, c.ts.NumStates(), c.ts.TransitionEntries())
	}
}

// TestStaticMatchesDPDemo: on the fixed demo grammar, the closure must
// produce exactly the labeling the dynamic-programming oracle does: same
// optimal rule for every (node, nonterminal), and state deltas equal to
// DP costs minus the row minimum.
func TestStaticMatchesDPDemo(t *testing.T) {
	g := fixedDemo(t)
	checkStaticAgainstDP(t, g, ir.RandomForest(g, ir.RandomConfig{Seed: 11, Trees: 200, MaxDepth: 8}))
}

func checkStaticAgainstDP(t *testing.T, g *grammar.Grammar, f *ir.Forest) {
	t.Helper()
	cl := generate(t, g, StaticConfig{})
	l, err := dp.New(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := l.LabelResult(f)
	got := cl.label(f, nil)
	for _, n := range f.Nodes {
		s := got[n.Index]
		row := want.Costs[n.Index]
		min := grammar.Inf
		for _, c := range row {
			if c < min {
				min = c
			}
		}
		for nt := range row {
			wantRule := want.Rules[n.Index][nt]
			gotRule := s.Rule[nt]
			if wantRule != gotRule {
				t.Fatalf("node %d (%s) nt %s: rule %s != DP rule %s",
					n.Index, g.OpName(n.Op), g.NTName(grammar.NT(nt)),
					g.RuleName(int(gotRule)), g.RuleName(int(wantRule)))
			}
			wantDelta := grammar.Inf
			if !row[nt].IsInf() {
				wantDelta = row[nt] - min
			}
			if s.Delta[nt] != wantDelta {
				t.Fatalf("node %d nt %s: delta %d != DP relative cost %d",
					n.Index, g.NTName(grammar.NT(nt)), s.Delta[nt], wantDelta)
			}
		}
	}
}

// TestStaticMatchesDPQuick drives the same oracle check from testing/quick
// seeds, so tree shapes are adversarial rather than hand-picked.
func TestStaticMatchesDPQuick(t *testing.T) {
	g := fixedDemo(t)
	c := generate(t, g, StaticConfig{})
	l, _ := dp.New(g, nil, nil)
	prop := func(seed int64, trees uint8) bool {
		f := ir.RandomForest(g, ir.RandomConfig{Seed: seed, Trees: int(trees%16) + 1, MaxDepth: 7})
		want := l.LabelResult(f)
		got := c.label(f, nil)
		for _, n := range f.Nodes {
			for nt := range want.Costs[n.Index] {
				if want.Rules[n.Index][nt] != got[n.Index].Rule[nt] {
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

func TestNormalize(t *testing.T) {
	delta := []grammar.Cost{5, 3, grammar.Inf, 7}
	rule := []int32{1, 2, -1, 3}
	Normalize(delta, rule, DefaultDeltaCap)
	want := []grammar.Cost{2, 0, grammar.Inf, 4}
	for i := range want {
		if delta[i] != want[i] {
			t.Errorf("delta[%d] = %d, want %d", i, delta[i], want[i])
		}
	}
	if rule[2] != -1 {
		t.Error("rule of underivable entry must stay -1")
	}
}

func TestNormalizeAllInf(t *testing.T) {
	delta := []grammar.Cost{grammar.Inf, grammar.Inf}
	rule := []int32{5, 6} // stale rules must be cleared
	Normalize(delta, rule, DefaultDeltaCap)
	if rule[0] != -1 || rule[1] != -1 {
		t.Error("all-Inf state must clear rules for canonical hashing")
	}
}

func TestNormalizeDeltaCap(t *testing.T) {
	delta := []grammar.Cost{0, 3, 100}
	rule := []int32{1, 2, 3}
	Normalize(delta, rule, 10)
	if !delta[2].IsInf() || rule[2] != -1 {
		t.Error("delta above cap must become underivable")
	}
	if delta[1] != 3 {
		t.Error("delta below cap must survive")
	}
}

func TestTableInterning(t *testing.T) {
	g := fixedDemo(t)
	tbl := NewTable(g)
	n := g.NumNonterms()
	mk := func(base grammar.Cost) ([]grammar.Cost, []int32) {
		d := make([]grammar.Cost, n)
		r := make([]int32, n)
		for i := range d {
			d[i] = base
			r[i] = int32(i)
		}
		return d, r
	}
	d1, r1 := mk(0)
	s1, created := tbl.Intern(d1, r1, nil)
	if !created {
		t.Error("first intern must create")
	}
	d2, r2 := mk(0)
	s2, created := tbl.Intern(d2, r2, nil)
	if created || s1 != s2 {
		t.Error("identical vectors must intern to the same state")
	}
	d3, r3 := mk(1)
	s3, created := tbl.Intern(d3, r3, nil)
	if !created || s3 == s1 {
		t.Error("different vectors must create a new state")
	}
	// Equal costs but different rules must be different states.
	d4, r4 := mk(0)
	r4[0] = 99
	s4, created := tbl.Intern(d4, r4, nil)
	if !created || s4 == s1 {
		t.Error("states with different rules must not merge")
	}
	if tbl.Len() != 3 {
		t.Errorf("table len = %d, want 3", tbl.Len())
	}
	if tbl.Get(s1.ID) != s1 {
		t.Error("Get by id failed")
	}
	if tbl.MemoryBytes() <= 0 {
		t.Error("memory estimate must be positive")
	}
	if s1.String() == "" {
		t.Error("state must render")
	}
}

// TestTableInternCopiesAtBirth: a born state owns copies of its vectors,
// so the caller may reuse them as scratch, and interning vectors that
// already have a state — what every repeated construction does — finds it
// without allocating.
func TestTableInternCopiesAtBirth(t *testing.T) {
	g := fixedDemo(t)
	tbl := NewTable(g)
	n := g.NumNonterms()
	delta := make([]grammar.Cost, n)
	rule := make([]int32, n)
	var born []*State
	for v := 0; v < 40; v++ { // enough states to grow the index twice
		for i := range delta {
			delta[i] = grammar.Cost(v + i)
			rule[i] = int32(i)
		}
		s, created := tbl.Intern(delta, rule, nil)
		if !created {
			t.Fatalf("vector %d did not create a state", v)
		}
		born = append(born, s)
	}
	for v, s := range born {
		if s.Delta[0] != grammar.Cost(v) || &s.Delta[0] == &delta[0] || &s.Rule[0] == &rule[0] {
			t.Fatalf("state %d aliases or lost the caller's vectors", v)
		}
	}
	for i := range delta {
		delta[i] = grammar.Cost(7 + i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if s, created := tbl.Intern(delta, rule, nil); created || s != born[7] {
			t.Fatal("re-interning an existing vector did not find its state")
		}
	})
	if allocs != 0 {
		t.Errorf("interning an existing vector allocated %.1f times, want 0", allocs)
	}
}

func TestStateDerives(t *testing.T) {
	s := &State{Delta: []grammar.Cost{0, grammar.Inf}, Rule: []int32{1, -1}}
	if !s.Derives(0) || s.Derives(1) {
		t.Error("Derives wrong")
	}
	if s.RuleAt(0) != 1 || s.RuleAt(1) != -1 {
		t.Error("RuleAt wrong")
	}
}

func TestGenerateMaxStates(t *testing.T) {
	// A grammar whose costs keep diverging without a bounding chain rule:
	// x accumulates cost per level while y stays flat, so the relative
	// cost difference grows without bound and state generation must trip
	// the MaxStates (or delta-cap) safety valve rather than diverge.
	g := grammar.MustParse(`
%term A(0) B(1)
%start x
x: A (0)
y: A (0)
x: B(x) (5)
y: B(y) (0)
`)
	_, _, err := GenerateTables(g, StaticConfig{MaxStates: 64})
	var trunc *TruncatedError
	if !errors.As(err, &trunc) || trunc.MaxStates != 64 || trunc.States != 65 {
		t.Fatalf("err = %v, want a *TruncatedError for the 65th state under MaxStates 64", err)
	}
}

func TestGenerateDivergingGrammarWithCap(t *testing.T) {
	// Same diverging grammar, but a finite delta cap bounds the state
	// space: generation must terminate.
	g := grammar.MustParse(`
%term A(0) B(1)
%start x
x: A (0)
y: A (0)
x: B(x) (5)
y: B(y) (0)
`)
	c := generate(t, g, StaticConfig{DeltaCap: 20, MaxStates: 1000})
	if c.st.States == 0 || c.st.States > 1000 {
		t.Errorf("states = %d", c.st.States)
	}
}

func TestGenerationMetrics(t *testing.T) {
	g := fixedDemo(t)
	m := &metrics.Counters{}
	c := generate(t, g, StaticConfig{Metrics: m})
	if m.StatesBuilt != int64(c.st.States) {
		t.Errorf("states built %d != states %d", m.StatesBuilt, c.st.States)
	}
	if m.TransitionsAdded != int64(c.st.TransitionsComputed) {
		t.Errorf("transitions added %d != transitions computed %d", m.TransitionsAdded, c.st.TransitionsComputed)
	}
	if m.RulesExamined == 0 || m.TransitionsAdded == 0 {
		t.Errorf("expected generation work: %s", m)
	}
}

// TestLabelingMetrics: labeling through the closure is one probe per
// node and no rule work — the one work unit per node E4 reports for the
// static kind — where DP examines rules at every node of the same forest.
func TestLabelingMetrics(t *testing.T) {
	g := fixedDemo(t)
	c := generate(t, g, StaticConfig{})
	f := ir.RandomForest(g, ir.RandomConfig{Seed: 3, Trees: 10, MaxDepth: 6})
	m := &metrics.Counters{}
	c.label(f, m)
	if m.TableProbes != int64(f.NumNodes()) || m.PerNode() != 1 {
		t.Errorf("probes = %d, work %.2f/node; want %d, one per node", m.TableProbes, m.PerNode(), f.NumNodes())
	}
	if m.RulesExamined != 0 || m.TableMisses != 0 {
		t.Errorf("static labeling must do no DP work: %s", m)
	}
	dm := &metrics.Counters{}
	l, err := dp.New(g, nil, dm)
	if err != nil {
		t.Fatal(err)
	}
	l.Label(f)
	if dm.RulesExamined < int64(f.NumNodes()) {
		t.Errorf("DP examined %d rules over %d nodes; the comparison has no contrast", dm.RulesExamined, f.NumNodes())
	}
}

// TestValidateStateRejectsCorruptStates: beyond the cost-normalized form,
// the shared per-state check refuses a rule recorded for a nonterminal it
// does not derive and chain rules that cycle — states Compute never
// builds, on which the reducer and emitter would follow chains forever.
func TestValidateStateRejectsCorruptStates(t *testing.T) {
	g := grammar.MustParse(`
%name cyc
%start a
%term X(0)

a: X = 1 (1) "x"
a: b = 2 (1)
b: a = 3 (0)
`)
	rule := func(id int) int32 {
		for i, r := range g.Rules {
			if r.ID == id {
				return int32(i)
			}
		}
		t.Fatalf("no rule %d", id)
		return -1
	}
	a, _ := g.NTByName("a")
	b, _ := g.NTByName("b")
	state := func(ra, rb int32) error {
		delta := make([]grammar.Cost, g.NumNonterms())
		rules := make([]int32, g.NumNonterms())
		for nt := range delta {
			delta[nt], rules[nt] = grammar.Inf, -1
		}
		delta[a], rules[a] = 0, ra
		delta[b], rules[b] = 0, rb
		return ValidateState(g, delta, rules)
	}
	if err := state(rule(1), rule(3)); err != nil {
		t.Fatalf("a state Compute builds was refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		ra, rb int32
	}{
		{"rule for another nonterminal", rule(3), rule(3)},
		{"chain cycle", rule(2), rule(3)},
	} {
		if err := state(c.ra, c.rb); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
