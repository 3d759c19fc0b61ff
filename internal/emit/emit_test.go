package emit

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
)

func TestEmitDemoTree(t *testing.T) {
	d := md.MustLoad("demo")
	g := d.Grammar
	l, _ := dp.New(g, d.Env, nil)
	rd, _ := reduce.New(g, d.Env, nil)
	f := ir.MustParseTree(g, "Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))")
	asm, instrs, cost, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3 || instrs != 3 {
		t.Errorf("cost=%d instrs=%d, want 3/3", cost, instrs)
	}
	for _, want := range []string{"movq (v1)", "addq", "movq r1, (v1)"} {
		if !strings.Contains(asm, want) {
			t.Errorf("asm missing %q:\n%s", want, asm)
		}
	}
}

func TestEmitRMWDag(t *testing.T) {
	d := md.MustLoad("demo")
	g := d.Grammar
	l, _ := dp.New(g, d.Env, nil)
	rd, _ := reduce.New(g, d.Env, nil)
	b := ir.NewBuilder(g)
	a := b.Leaf("Reg", 1)
	root := b.Node("Store", a, b.Node("Plus", b.Node("Load", a), b.Leaf("Reg", 2)))
	b.Root(root)
	f := b.Finish()
	asm, instrs, cost, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 1 || instrs != 1 {
		t.Errorf("cost=%d instrs=%d, want 1/1 (single RMW instruction)", cost, instrs)
	}
	if !strings.Contains(asm, "addq v2, (v1)") {
		t.Errorf("unexpected RMW asm:\n%s", asm)
	}
}

// TestEnginesEmitIdenticalCode is the reproduction's equivalent of the
// "both code generators produce identical code" check the paper family
// performs between lburg and their tools.
func TestEnginesEmitIdenticalCode(t *testing.T) {
	d := md.MustLoad("demo")
	g := d.Grammar
	l, _ := dp.New(g, d.Env, nil)
	e, err := core.New(g, d.Env, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := reduce.New(g, d.Env, nil)
	for seed := int64(0); seed < 15; seed++ {
		f := ir.RandomForest(g, ir.RandomConfig{
			Seed: seed, Trees: 40, MaxDepth: 7, Share: seed%3 == 0, MaxLeafVal: 4,
			RootOps:  []grammar.OpID{g.MustOp("Store")},
			InnerOps: []grammar.OpID{g.MustOp("Plus"), g.MustOp("Load")},
		})
		asmDP, nDP, cDP, err := Emit(rd, f, l.Label(f), g)
		if err != nil {
			t.Fatal(err)
		}
		asmOD, nOD, cOD, err := Emit(rd, f, e.Label(f), g)
		if err != nil {
			t.Fatal(err)
		}
		if asmDP != asmOD || nDP != nOD || cDP != cOD {
			t.Fatalf("seed %d: engines emitted different code (dp %d instrs cost %d, od %d instrs cost %d)\n--- dp ---\n%s\n--- od ---\n%s",
				seed, nDP, cDP, nOD, cOD, asmDP, asmOD)
		}
	}
}

func TestTemplateEscapes(t *testing.T) {
	g := grammar.MustParse(`
%term K(0) P(2)
%start r
k: K = 1 (0) "=%c"
r: P(k, k) = 2 (1) "lea %0(%1), %d ; 100%% flat %z"
`)
	l, _ := dp.New(g, nil, nil)
	rd, _ := reduce.New(g, nil, nil)
	f := ir.MustParseTree(g, "P(K[3], K[4])")
	asm, instrs, _, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if instrs != 1 {
		t.Errorf("instrs = %d, want 1", instrs)
	}
	if !strings.Contains(asm, "lea 3(4), r0") {
		t.Errorf("operand substitution failed: %q", asm)
	}
	if !strings.Contains(asm, "100% flat") {
		t.Errorf("%%%% escape failed: %q", asm)
	}
	if !strings.Contains(asm, "%z") {
		t.Errorf("unknown escapes should pass through: %q", asm)
	}
}

// TestKidOperandOfTemplatedChain: %0 is the operand of the kid's own
// nonterminal. Here that is a, derived from r by a chain rule with a
// value template, so the operand is "(v1)", not r's "v1".
func TestKidOperandOfTemplatedChain(t *testing.T) {
	g := grammar.MustParse(`
%term R(0) L(1)
%start s
r: R = 1 (0) "=v%c"
a: r = 2 (0) "=(%0)"
s: L(a) = 3 (1) "mov %0, %d"
`)
	l, _ := dp.New(g, nil, nil)
	rd, _ := reduce.New(g, nil, nil)
	f := ir.MustParseTree(g, "L(R[1])")
	asm, _, _, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\tmov (v1), r0\n"; asm != want {
		t.Errorf("asm = %q, want %q", asm, want)
	}
}

func TestSymbolSubstitution(t *testing.T) {
	g := grammar.MustParse(`
%term G(0) L(1)
%start r
a: G = 1 (0) "=%s"
r: L(a) = 2 (1) "mov %0, %d"
`)
	l, _ := dp.New(g, nil, nil)
	rd, _ := reduce.New(g, nil, nil)
	f := ir.MustParseTree(g, "L(G[counter])")
	asm, _, _, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asm, "mov counter, r0") {
		t.Errorf("symbol substitution failed: %q", asm)
	}
}

func TestChainRuleWithInstructionTemplate(t *testing.T) {
	g := grammar.MustParse(`
%term K(0)
%start f
i: K = 1 (0) "=%c"
f: i = 2 (1) "cvtsi2sd %0, %d"
`)
	l, _ := dp.New(g, nil, nil)
	rd, _ := reduce.New(g, nil, nil)
	f := ir.MustParseTree(g, "K[7]")
	asm, instrs, _, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if instrs != 1 || !strings.Contains(asm, "cvtsi2sd 7, r0") {
		t.Errorf("chain instruction template failed: %q (%d instrs)", asm, instrs)
	}
}

func TestSharedSubtreeEmittedOnce(t *testing.T) {
	d := md.MustLoad("demo")
	g := d.Grammar
	l, _ := dp.New(g, d.Env, nil)
	rd, _ := reduce.New(g, d.Env, nil)
	b := ir.NewDAGBuilder(g)
	shared := b.Node("Plus", b.Leaf("Reg", 1), b.Leaf("Reg", 2))
	b.Root(b.Node("Store", b.Leaf("Reg", 3), shared))
	b.Root(b.Node("Store", b.Leaf("Reg", 4), shared))
	f := b.Finish()
	asm, instrs, _, err := Emit(rd, f, l.Label(f), g)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(asm, "addq"); got != 1 {
		t.Errorf("shared add emitted %d times, want 1:\n%s", got, asm)
	}
	if instrs != 3 { // one add + two stores
		t.Errorf("instrs = %d, want 3", instrs)
	}
}

// TestResetForgetsEarlierForests: the emitter takes visits in any node
// order, and a kid the current forest has not visited renders as its
// leaf, even where an earlier forest visited the same node index.
func TestResetForgetsEarlierForests(t *testing.T) {
	g := grammar.MustParse(`
%term K(0) P(2)
%start r
k: K = 1 (0) "=%c"
r: P(k, k) = 2 (1) "lea %0(%1), %d"
`)
	l, _ := dp.New(g, nil, nil)
	rd, _ := reduce.New(g, nil, nil)
	em := New(g)
	a := ir.MustParseTree(g, "P(K[3], K[4])")
	if _, err := rd.Cover(a, l.Label(a), em.Visit); err != nil {
		t.Fatal(err)
	}
	em.Reset()
	b, err := ir.ParseTrees(g, "P(K[5], K[6]); P(K[7], K[8])")
	if err != nil {
		t.Fatal(err)
	}
	lab := l.Label(b)
	// The later root first, so the earlier one's kids fall inside the heads
	// that visit grew.
	for _, root := range []*ir.Node{b.Roots[1], b.Roots[0]} {
		em.Visit(root, g.Start, &g.Rules[lab.RuleAt(root, g.Start)])
	}
	if got, want := em.Asm(), "\tlea 7(8), r0\n\tlea 5(6), r1\n"; got != want {
		t.Errorf("asm = %q, want %q", got, want)
	}
}
