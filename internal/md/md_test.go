package md

import (
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"alpha", "demo", "jit64", "mips", "sparc", "x86"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if _, err := Load("nope"); err == nil {
		t.Error("expected error for unknown description")
	}
}

// TestAllDescriptionsLoad parses every grammar and binds every dynamic-cost
// name, so a missing binding or grammar typo fails here rather than deep in
// an experiment.
func TestAllDescriptionsLoad(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Env.Bind(d.Grammar); err != nil {
				t.Fatal(err)
			}
			st := d.Grammar.ComputeStats()
			if st.NormalizedRules < 8 {
				t.Errorf("suspiciously small grammar: %+v", st)
			}
			t.Logf("%s", st)
		})
	}
}

// TestEnvNamesUsed: every binding in an environment must be referenced by
// the grammar (catches stale bindings), and vice versa (caught by Bind).
func TestEnvNamesUsed(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := MustLoad(name)
			used := map[string]bool{}
			for i := range d.Grammar.Rules {
				if dc := d.Grammar.Rules[i].DynCost; dc != "" {
					used[dc] = true
				}
			}
			for _, n := range d.Env.Names() {
				if !used[n] {
					t.Errorf("binding %q is not used by the grammar", n)
				}
			}
		})
	}
}

// TestEnginesAgreeOnAllGrammars is the full-scale oracle check: for every
// machine description, DP and on-demand labeling agree rule-for-rule on
// random statement forests (trees and DAGs).
func TestEnginesAgreeOnAllGrammars(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := MustLoad(name)
			g := d.Grammar
			l, err := dp.New(g, d.Env, nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.New(g, d.Env, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 6; seed++ {
				f := ir.RandomForest(g, ir.RandomConfig{
					Seed: seed, Trees: 120, MaxDepth: 7, Share: seed%2 == 1, MaxLeafVal: 1 << uint(4*seed%40),
				})
				want := l.LabelResult(f)
				got := e.LabelStates(f)
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
							t.Fatalf("seed %d node %d (%s) nt %s: od rule %s != dp rule %s",
								seed, n.Index, g.OpName(n.Op), g.NTName(grammar.NT(nt)),
								g.RuleName(int(s.Rule[nt])), g.RuleName(int(want.Rules[n.Index][nt])))
						}
						wantDelta := grammar.Inf
						if !row[nt].IsInf() {
							wantDelta = row[nt] - min
						}
						if s.Delta[nt] != wantDelta {
							t.Fatalf("seed %d node %d nt %s: delta %d != %d",
								seed, n.Index, g.NTName(grammar.NT(nt)), s.Delta[nt], wantDelta)
						}
					}
				}
			}
		})
	}
}

// TestStripDynamicClosed: every grammar must stay well-formed with its
// dynamic rules removed — the variant offline generation and the
// code-quality experiment need.
func TestStripDynamicClosed(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := MustLoad(name)
			fixed, err := d.Grammar.StripDynamic()
			if err != nil {
				t.Fatal(err)
			}
			if fixed.HasAnyDynRules() {
				t.Error("stripped grammar still has dynamic rules")
			}
			if fixed.NumRules() >= d.Grammar.NumRules() {
				t.Errorf("strip removed nothing: %d -> %d rules",
					d.Grammar.NumRules(), fixed.NumRules())
			}
		})
	}
}

// TestStaticGenerationAllGrammars: the offline generator must terminate
// with a sane state count on every stripped grammar — and the engine
// seeded with its closure, the static kind, must agree with DP.
func TestStaticGenerationAllGrammars(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := MustLoad(name)
			fixed, err := d.Grammar.StripDynamic()
			if err != nil {
				t.Fatal(err)
			}
			ts, st, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d states, %d transition entries, %d bytes",
				name, st.States, st.TransitionsComputed, st.TableBytes)
			if st.States < 4 {
				t.Errorf("implausibly small automaton: %d states", st.States)
			}
			a, err := core.NewSeeded(fixed, nil, core.Config{}, ts)
			if err != nil {
				t.Fatal(err)
			}
			l, err := dp.New(fixed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := ir.RandomForest(fixed, ir.RandomConfig{Seed: 99, Trees: 150, MaxDepth: 7})
			want := l.LabelResult(f)
			got := a.LabelStates(f)
			for _, n := range f.Nodes {
				for nt := range want.Costs[n.Index] {
					if want.Rules[n.Index][nt] != got.StateAt(n).Rule[nt] {
						t.Fatalf("node %d nt %d: static disagrees with DP", n.Index, nt)
					}
				}
			}
		})
	}
}

// TestImmediateRangesMatter: the same expression with a small and a large
// constant must select different rules on the RISC grammars.
func TestImmediateRangesMatter(t *testing.T) {
	for _, name := range []string{"mips", "sparc", "alpha"} {
		t.Run(name, func(t *testing.T) {
			d := MustLoad(name)
			g := d.Grammar
			l, err := dp.New(g, d.Env, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := g.MustNT("reg")
			small := ir.MustParseTree(g, "ADD(REG[1], CNST[5])")
			large := ir.MustParseTree(g, "ADD(REG[1], CNST[100000])")
			rs := l.LabelResult(small)
			rl := l.LabelResult(large)
			cSmall := rs.CostAt(small.Roots[0], reg)
			cLarge := rl.CostAt(large.Roots[0], reg)
			if cSmall >= cLarge {
				t.Errorf("small-immediate add (%d) must be cheaper than large (%d)", cSmall, cLarge)
			}
		})
	}
}

// TestX86RMWSelected: the flagship x86 dynamic rule fires on a DAG with a
// shared address and costs less than load+op+store.
func TestX86RMWSelected(t *testing.T) {
	d := MustLoad("x86")
	g := d.Grammar
	l, err := dp.New(g, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(g)
	a := b.Leaf("ADDRL", -8)
	v := b.Leaf("REG", 2)
	rmw := b.Node("ASGN", a, b.Node("ADD", b.Node("INDIR", a), v))
	b.Root(rmw)
	f := b.Finish()
	res := l.LabelResult(f)
	if got := res.CostAt(rmw, g.Start); got != 1 {
		t.Errorf("RMW cost = %d, want 1\n%s", got, res.Explain(rmw))
	}
}

// TestX86ScaledIndex: ADD(reg, SHL(reg, 2)) forms a scaled addressing mode
// for a load, cheaper than computing the address into a register.
func TestX86ScaledIndex(t *testing.T) {
	d := MustLoad("x86")
	g := d.Grammar
	l, _ := dp.New(g, d.Env, nil)
	ok := ir.MustParseTree(g, "INDIR(ADD(REG[1], SHL(REG[2], CNST[3])))")
	bad := ir.MustParseTree(g, "INDIR(ADD(REG[1], SHL(REG[2], CNST[7])))")
	reg := g.MustNT("reg")
	cOK := l.LabelResult(ok).CostAt(ok.Roots[0], reg)
	cBad := l.LabelResult(bad).CostAt(bad.Roots[0], reg)
	if cOK >= cBad {
		t.Errorf("scale-3 load (%d) must beat scale-7 load (%d)", cOK, cBad)
	}
}
