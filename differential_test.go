package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/grammar"
	"repro/internal/ir"
)

// The cross-engine differential suite: every engine kind must
// produce identical labelings, selection costs and emitted code on the
// same inputs. The dp engine is the oracle (it computes the cost tables
// directly, per grammar definition); the automaton engines must agree
// with it on hundreds of seeded random forests per machine description —
// trees and DAGs, small and large immediates, with and without dynamic
// rules in the grammar.
//
// Two arenas per machine: the full grammar (dynamic costs active; every
// kind that can host them) and the stripped fixed-cost grammar (every
// kind — including the static automaton, which cannot host
// dynamic rules at all).

// diffSeeds is the number of seeded forests per machine description per
// arena (the acceptance bar is >= 200 across all kinds x machines).
const diffSeeds = 200

// opSplit classifies the grammar's operators for derivable generation:
// roots are operators with a rule deriving the start nonterminal;
// inner/leaf are operators with a rule deriving anything else (expression
// position). Biasing random forests this way makes most of them
// derivable end to end, so the cost/emit comparisons run on real
// derivations instead of agreeing about errors.
func opSplit(g *grammar.Grammar) (roots, inner, leaf []grammar.OpID) {
	for op := 0; op < g.NumOps(); op++ {
		isRoot, isExpr := false, false
		for _, ri := range g.BaseRules(grammar.OpID(op)) {
			if g.Rules[ri].LHS == g.Start {
				isRoot = true
			} else {
				isExpr = true
			}
		}
		if isRoot {
			roots = append(roots, grammar.OpID(op))
		}
		if isExpr {
			if g.Arity(grammar.OpID(op)) == 0 {
				leaf = append(leaf, grammar.OpID(op))
			} else {
				inner = append(inner, grammar.OpID(op))
			}
		}
	}
	return roots, inner, leaf
}

func diffConfig(seed int, roots, inner, leaf []grammar.OpID) ir.RandomConfig {
	cfg := ir.RandomConfig{
		Seed:  int64(seed),
		Trees: 2 + seed%5,
		// Vary depth and immediate magnitude so dense rows, hash paths and
		// immediate-range dynamic rules all get hit.
		MaxDepth:   4 + seed%4,
		MaxLeafVal: 1 << uint(seed%16),
	}
	if seed%3 == 0 {
		// DAG arena: small leaf values force real sharing.
		cfg.Share = true
		cfg.MaxLeafVal = 3
	}
	if seed%2 == 1 {
		// Derivable arena: statement roots over expression subtrees.
		cfg.RootOps = roots
		cfg.InnerOps = inner
		cfg.LeafOps = leaf
	}
	return cfg
}

// arena is one grammar with one selector per engine kind.
type arena struct {
	name  string
	g     *grammar.Grammar
	kinds []repro.Kind
	sels  map[repro.Kind]*repro.Selector
}

// compare checks one forest across every engine of the arena: identical
// per-(node, nonterminal) rule tables, identical selection cost (or the
// same no-derivation failure), identical emitted output. It reports
// whether the forest was derivable (so callers can assert coverage).
func (a *arena) compare(t *testing.T, f *ir.Forest, seed int) bool {
	t.Helper()
	ref := a.kinds[0]
	refLab, err := a.sels[ref].Label(f)
	if err != nil {
		t.Fatalf("%s seed %d: %s label: %v", a.name, seed, ref, err)
	}
	numNT := a.g.NumNonterms()
	for _, kind := range a.kinds[1:] {
		lab, err := a.sels[kind].Label(f)
		if err != nil {
			t.Fatalf("%s seed %d: %s label: %v", a.name, seed, kind, err)
		}
		for _, n := range f.Nodes {
			for nt := 0; nt < numNT; nt++ {
				want := refLab.RuleAt(n, grammar.NT(nt))
				got := lab.RuleAt(n, grammar.NT(nt))
				if want != got {
					t.Fatalf("%s seed %d node %d (%s) nt %s: %s rule %s != %s rule %s",
						a.name, seed, n.Index, a.g.OpName(n.Op), a.g.NTName(grammar.NT(nt)),
						kind, a.g.RuleName(int(got)), ref, a.g.RuleName(int(want)))
				}
			}
		}
	}

	refOut, refErr := a.sels[ref].Compile(context.Background(), f)
	for _, kind := range a.kinds[1:] {
		out, err := a.sels[kind].Compile(context.Background(), f)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s seed %d: %s compile err=%v but %s err=%v", a.name, seed, kind, err, ref, refErr)
		}
		if refErr != nil {
			continue
		}
		if out.Cost != refOut.Cost {
			t.Fatalf("%s seed %d: %s cost %d != %s cost %d", a.name, seed, kind, out.Cost, ref, refOut.Cost)
		}
		if out.Asm != refOut.Asm || out.Instructions != refOut.Instructions || out.Cost != refOut.Cost {
			t.Fatalf("%s seed %d: %s emitted output differs from %s:\n%s\n--- vs ---\n%s",
				a.name, seed, kind, ref, out.Asm, refOut.Asm)
		}
	}
	return refErr == nil
}

// TestDifferentialEngines drives diffSeeds random forests per machine
// description through every engine kind and requires identical
// results everywhere.
func TestDifferentialEngines(t *testing.T) {
	kinds := repro.Kinds()
	if len(kinds) < 3 {
		t.Fatalf("kinds = %v, want at least the three built-ins", kinds)
	}
	for _, name := range repro.Machines() {
		t.Run(name, func(t *testing.T) {
			m, err := repro.LoadMachine(name)
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := m.FixedMachine()
			if err != nil {
				t.Fatal(err)
			}

			// Full-grammar arena: every kind that can host the dynamic
			// rules (the static automaton by design cannot).
			full := &arena{name: name, g: m.Grammar, sels: map[repro.Kind]*repro.Selector{}}
			for _, kind := range kinds {
				sel, err := m.NewSelector(kind, repro.Options{})
				if err != nil {
					continue
				}
				full.kinds = append(full.kinds, kind)
				full.sels[kind] = sel
			}
			if full.kinds[0] != repro.KindDP {
				t.Fatalf("dp must construct everywhere and act as the oracle, got %v", full.kinds)
			}
			if len(full.kinds) < 2 {
				t.Fatalf("only %v construct on the full grammar", full.kinds)
			}
			// The hybrid engine must actually be in the full arena — for
			// every built-in machine, including every dynamic-rule grammar.
			// Without this assertion a constructor regression would silently
			// drop it from the comparison (the loop tolerates ctor errors
			// because static legitimately rejects dynamic grammars).
			if _, ok := full.sels[repro.KindHybrid]; !ok {
				t.Fatalf("hybrid kind missing from the full arena (dynamic rules: %v): %v",
					m.Grammar.HasAnyDynRules(), full.kinds)
			}

			// Fixed-grammar arena: every kind, no exceptions —
			// in particular the static engine's expanded ahead-of-time
			// tables must agree with every other kind here.
			fx := &arena{name: name + ".fixed", g: fixed.Grammar, sels: map[repro.Kind]*repro.Selector{}}
			for _, kind := range kinds {
				sel, err := fixed.NewSelector(kind, repro.Options{})
				if err != nil {
					t.Fatalf("%s on stripped grammar: %v", kind, err)
				}
				fx.kinds = append(fx.kinds, kind)
				fx.sels[kind] = sel
			}
			if _, ok := fx.sels[repro.KindStatic]; !ok {
				t.Fatalf("static kind missing from the fixed arena: %v", fx.kinds)
			}

			fullRoots, fullInner, fullLeaf := opSplit(m.Grammar)
			fixedRoots, fixedInner, fixedLeaf := opSplit(fixed.Grammar)
			derivable := 0
			for seed := 0; seed < diffSeeds; seed++ {
				if full.compare(t, ir.RandomForest(m.Grammar, diffConfig(seed, fullRoots, fullInner, fullLeaf)), seed) {
					derivable++
				}
				fx.compare(t, ir.RandomForest(fixed.Grammar, diffConfig(seed, fixedRoots, fixedInner, fixedLeaf)), seed)
			}
			if derivable < diffSeeds/4 {
				t.Errorf("only %d of %d forests derivable: the cost/emit comparison barely ran", derivable, diffSeeds)
			}
			t.Logf("%s: %d kinds full / %d kinds fixed, %d/%d derivable forests",
				name, len(full.kinds), len(fx.kinds), derivable, diffSeeds)
		})
	}
}
