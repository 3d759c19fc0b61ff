package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro"
)

const parallelSrc = `
int a[64];
int fill(int n) {
	int i;
	for (i = 0; i < n; i += 1) { a[i] = i * 3; }
	return n;
}
int sum(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i += 1) { s += a[i]; }
	return s;
}
int dot(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i += 1) { s += a[i] * a[i]; }
	return s;
}
int max(int x, int y) {
	if (x < y) { return y; }
	return x;
}
`

// TestCompileUnitParallel: CompileUnit under WithWorkers must produce
// exactly the outputs of sequential compilation, function by function,
// while sharing one warm on-demand engine across workers — also with
// more workers (8) than the unit has functions (4).
func TestCompileUnitParallel(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(parallelSrc)
	if err != nil {
		t.Fatal(err)
	}
	seqSel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seqSel.CompileUnit(context.Background(), unit)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 1, 2, 4, 8} {
		parSel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := parSel.CompileUnit(context.Background(), unit, repro.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Asm != want[i].Asm || got[i].Cost != want[i].Cost ||
				got[i].Instructions != want[i].Instructions {
				t.Errorf("workers=%d func %d: parallel output differs from sequential", workers, i)
			}
		}
		if parSel.States() != seqSel.States() {
			t.Errorf("workers=%d: states %d != sequential %d", workers, parSel.States(), seqSel.States())
		}
	}
}

// TestSelectorConcurrentCompile: one selector, many goroutines, repeated
// Compile calls on the same forests — outputs must stay deterministic, a
// property the pooled emitters must not break.
func TestSelectorConcurrentCompile(t *testing.T) {
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(parallelSrc)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sel.CompileUnit(context.Background(), unit)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range unit.Funcs {
					out, err := sel.Compile(context.Background(), unit.Funcs[i].Forest)
					if err != nil {
						errc <- err
						return
					}
					if out.Asm != want[i].Asm || out.Cost != want[i].Cost {
						errc <- errMismatch(i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "concurrent Compile output mismatch" }

// TestCompileUnitSurplusWorkersFlowInward: a unit with fewer functions
// than workers leaves the surplus idle (each function's forest is still
// labeled sequentially); outputs must stay identical to sequential
// compilation.
func TestCompileUnitSurplusWorkersFlowInward(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(`
int one(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i += 1) { s += i * i + n; }
	return s;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(unit.Funcs) != 1 {
		t.Fatalf("want a single-function unit, got %d", len(unit.Funcs))
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := sel.CompileUnit(ctx, unit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sel.CompileUnit(ctx, unit, repro.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Asm != want[0].Asm || got[0].Cost != want[0].Cost {
		t.Error("single-function unit with surplus workers differs from sequential")
	}
}

// TestKindsRegistry: Kinds lists dp, static, ondemand, hybrid in that
// order, and every kind it lists constructs through NewSelector on a
// fixed-cost grammar.
func TestKindsRegistry(t *testing.T) {
	kinds := repro.Kinds()
	if len(kinds) < 4 {
		t.Fatalf("kinds = %v, want the three built-ins plus hybrid", kinds)
	}
	if kinds[0] != repro.KindDP || kinds[1] != repro.KindStatic || kinds[2] != repro.KindOnDemand ||
		kinds[3] != repro.KindHybrid {
		t.Errorf("kinds out of order: %v", kinds)
	}
	m, err := repro.LoadMachine("demo")
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := m.FixedMachine()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fixed.ParseTree("Store(Reg[1], Reg[2])")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		sel, err := fixed.NewSelector(kind, repro.Options{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sel.Labeler() == nil {
			t.Fatalf("%s: no engine behind the selector", kind)
		}
		if _, err := sel.Compile(context.Background(), f); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}
