package repro_test

import (
	"context"
	"strings"
	"testing"

	"repro"
	"repro/internal/metrics"
)

func TestLoadMachine(t *testing.T) {
	for _, name := range repro.Machines() {
		m, err := repro.LoadMachine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Grammar == nil || m.Name != name {
			t.Errorf("%s: bad machine", name)
		}
	}
	if _, err := repro.LoadMachine("vax"); err == nil {
		t.Error("expected error for unknown machine")
	}
}

func TestNewMachineFromSource(t *testing.T) {
	src := `
%name tiny
%start r
%term K(0) P(2)
k: K (0) "=%c"
r: P(k, k) (1) "add %0, %1 -> %d"
r: k (1) "mov %0 -> %d"
`
	m, err := repro.NewMachine("tiny", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindStatic, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.ParseTree("P(K[1], K[2])")
	if err != nil {
		t.Fatal(err)
	}
	out, err := sel.Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != 1 || out.Instructions != 1 {
		t.Errorf("cost=%d instrs=%d, want 1/1", out.Cost, out.Instructions)
	}
	if !strings.Contains(out.Asm, "add 1, 2 -> r0") {
		t.Errorf("asm: %q", out.Asm)
	}
	// Dynamic names must be validated eagerly.
	if _, err := repro.NewMachine("bad", "%term K(0)\nr: K (dyn nope)", nil); err == nil {
		t.Error("expected unbound dynamic-cost error")
	}
	if _, err := repro.NewMachine("bad", "%%%", nil); err == nil {
		t.Error("expected parse error")
	}
}

func TestSelectorKindsAgree(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(`
int a[16];
int f(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i += 1) {
		a[i] = i * 4;
		s += a[i];
	}
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := unit.Funcs[0].Forest

	dpSel, err := m.NewSelector(repro.KindDP, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	odSel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := dpSel.Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := odSel.Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if a.Asm != b.Asm || a.Cost != b.Cost || a.Instructions != b.Instructions {
		t.Errorf("engines disagree: dp(%d,%d) vs od(%d,%d)",
			a.Cost, a.Instructions, b.Cost, b.Instructions)
	}
}

func TestStaticRefusesDynamicGrammar(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSelector(repro.KindStatic, repro.Options{}); err == nil {
		t.Fatal("static selector must refuse grammars with dynamic rules")
	}
	fixed, err := m.FixedMachine()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := fixed.NewSelector(repro.KindStatic, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.States() == 0 || sel.Transitions() == 0 || sel.MemoryBytes() == 0 {
		t.Error("static selector reports empty automaton")
	}
}

func TestSelectorAccounting(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	c := &metrics.Counters{}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{Metrics: c})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Kind() != repro.KindOnDemand || sel.Machine() != m {
		t.Error("accessors wrong")
	}
	f, err := m.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Compile(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	if c.NodesLabeled != int64(f.NumNodes()) {
		t.Errorf("nodes labeled = %d, want %d", c.NodesLabeled, f.NumNodes())
	}
	if sel.States() == 0 {
		t.Error("no states materialized")
	}
}

func TestBadSelectorKind(t *testing.T) {
	m, err := repro.LoadMachine("demo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSelector(repro.Kind("quantum"), repro.Options{}); err == nil {
		t.Error("expected unknown-kind error")
	}
}

func TestDAGBuilderThroughAPI(t *testing.T) {
	m, err := repro.LoadMachine("demo")
	if err != nil {
		t.Fatal(err)
	}
	b := m.NewDAGBuilder()
	a1 := b.Leaf("Reg", 1)
	a2 := b.Leaf("Reg", 1)
	if a1 != a2 {
		t.Fatal("DAG builder must share identical leaves")
	}
	root := b.Node("Store", a1, b.Node("Plus", b.Node("Load", a2), b.Leaf("Reg", 2)))
	b.Root(root)
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sel.Compile(context.Background(), b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != 1 {
		t.Errorf("RMW through public API: cost %d, want 1", out.Cost)
	}
}

func TestCompileMinCErrors(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CompileMinC("int f( {"); err == nil {
		t.Error("expected syntax error")
	}
	if _, err := m.CompileMinC("int f() { return ghost; }"); err == nil {
		t.Error("expected lowering error")
	}
}

func TestKinds(t *testing.T) {
	kinds := repro.Kinds()
	if len(kinds) != 4 {
		t.Errorf("kinds = %v, want the three paper engines plus hybrid", kinds)
	}
	want := []repro.Kind{repro.KindDP, repro.KindStatic, repro.KindOnDemand, repro.KindHybrid}
	for i, k := range want {
		if i >= len(kinds) || kinds[i] != k {
			t.Fatalf("kinds = %v, want %v (registration order)", kinds, want)
		}
	}
}

// TestWarmStartThroughAPI: persist a warmed automaton and restore it into
// a new selector; the restored selector must label without misses.
func TestWarmStartThroughAPI(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(`int f(int n) { int s = 0; int i; for (i = 0; i < n; i += 1) { s += i; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	f := unit.Funcs[0].Forest

	warm, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := warm.Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := warm.SaveAutomaton(&buf); err != nil {
		t.Fatal(err)
	}

	c := &metrics.Counters{}
	restored, err := m.NewSelector(repro.KindOnDemand, repro.Options{Metrics: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadAutomaton(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Asm != want.Asm || got.Cost != want.Cost {
		t.Error("restored selector emits different code")
	}
	if c.TableMisses != 0 {
		t.Errorf("restored selector had %d misses", c.TableMisses)
	}

	// DP selectors have no automaton to persist.
	dpSel, _ := m.NewSelector(repro.KindDP, repro.Options{})
	if err := dpSel.SaveAutomaton(&buf); err == nil {
		t.Error("SaveAutomaton must fail for DP selectors")
	}
	if err := dpSel.LoadAutomaton(strings.NewReader("")); err == nil {
		t.Error("LoadAutomaton must fail for DP selectors")
	}
}
