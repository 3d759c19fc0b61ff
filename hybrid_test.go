package repro_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/grammar"
	"repro/internal/ir"
)

// writeHybridBlob compiles the fixed-operator closure of m's FULL
// grammar and writes the `.isel` blob — what `iselgen -machine <m> -out
// <path>` produces.
func writeHybridBlob(t *testing.T, m *repro.Machine, path string) {
	t.Helper()
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHybridRoundTrip is the dynamic-grammar counterpart of
// TestOfflineRoundTrip — the round-trip coverage gap this PR closes. For
// every machine description (every one of which has dynamic rules), a
// hybrid selector loading a generated `.isel` blob must be
// indistinguishable from one whose fixed-subset tables were compiled
// in-process, and from the on-demand engine — same labels, same costs,
// same emitted code, including on forests that cross the fixed/dynamic
// boundary.
func TestHybridRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range repro.Machines() {
		t.Run(name, func(t *testing.T) {
			m, err := repro.LoadMachine(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".hyb.isel")
			writeHybridBlob(t, m, path)
			fromBlob, err := m.NewSelector(repro.KindHybrid, repro.Options{PreloadPath: path})
			if err != nil {
				t.Fatal(err)
			}
			inProc, err := m.NewSelector(repro.KindHybrid, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			onDemand, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fromBlob.States() != inProc.States() {
				t.Fatalf("seeded states: blob %d, in-process %d", fromBlob.States(), inProc.States())
			}
			if fromBlob.States() == 0 {
				t.Fatal("hybrid engine seeded no offline states")
			}
			roots, inner, leaf := opSplit(m.Grammar)
			for seed := 0; seed < 50; seed++ {
				f := ir.RandomForest(m.Grammar, diffConfig(seed, roots, inner, leaf))
				labBlob, err := fromBlob.Label(f)
				if err != nil {
					t.Fatal(err)
				}
				labOD, err := onDemand.Label(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range f.Nodes {
					for nt := 0; nt < m.Grammar.NumNonterms(); nt++ {
						if labBlob.RuleAt(n, grammar.NT(nt)) != labOD.RuleAt(n, grammar.NT(nt)) {
							t.Fatalf("seed %d node %d (%s) nt %d: blob-loaded hybrid disagrees with on-demand",
								seed, n.Index, m.Grammar.OpName(n.Op), nt)
						}
					}
				}
				outBlob, errBlob := fromBlob.Compile(context.Background(), f)
				outProc, errProc := inProc.Compile(context.Background(), f)
				outOD, errOD := onDemand.Compile(context.Background(), f)
				if (errBlob == nil) != (errOD == nil) || (errProc == nil) != (errOD == nil) {
					t.Fatalf("seed %d: blob err=%v in-process err=%v on-demand err=%v", seed, errBlob, errProc, errOD)
				}
				if errBlob != nil {
					continue
				}
				if outBlob.Asm != outOD.Asm || outBlob.Cost != outOD.Cost ||
					outProc.Asm != outOD.Asm || outProc.Cost != outOD.Cost {
					t.Fatalf("seed %d: hybrid output differs from on-demand", seed)
				}
			}
		})
	}
}

// TestHybridBlobCoverage pins down exactly what a hybrid blob seeds and
// what is constructed on demand, at three levels: the table set's tables
// per operator, the rule partition those tables imply, and the engine's
// observable growth under traffic on each side of the boundary. demo is
// the machine: its one dynamic rule (the read-modify-write memop guard)
// lives on Store, so Reg/Load/Plus are seeded and Store is constructed on
// demand.
func TestHybridBlobCoverage(t *testing.T) {
	m, err := repro.LoadMachine("demo")
	if err != nil {
		t.Fatal(err)
	}
	g := m.Grammar
	res, err := gen.Compile(g, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Tables

	// Level 1: the table set carries tables for exactly the fixed
	// operators.
	wantOffline := map[string]bool{"Reg": true, "Load": true, "Plus": true, "Store": false}
	for op := 0; op < g.NumOps(); op++ {
		name := g.OpName(grammar.OpID(op))
		want, known := wantOffline[name]
		if !known {
			t.Fatalf("unexpected operator %s in demo", name)
		}
		served := false
		switch g.Arity(grammar.OpID(op)) {
		case 0:
			served = ts.Leaf[op] >= 0
		case 1:
			served = len(ts.T1[op]) > 0
		default:
			served = len(ts.T2[op]) > 0
		}
		if served != want {
			t.Errorf("operator %s: served offline = %v, want %v", name, served, want)
		}
		if got := g.HasDynRules(grammar.OpID(op)); got == want {
			t.Errorf("operator %s: HasDynRules = %v contradicts the expected partition", name, got)
		}
	}

	// Level 2: the rule partition. A rule is answerable offline iff its
	// operator is fixed (chain rules ride along — they can never be
	// dynamic, the normalizer rejects that). For demo that is every rule
	// except the two Store rules (5 and the dynamic 6).
	for ri := range g.Rules {
		r := &g.Rules[ri]
		name := g.RuleName(ri)
		if r.IsChain {
			continue // chain rules live inside state vectors on both sides
		}
		offline := !g.HasDynRules(r.Op)
		if wantOffline[g.OpName(r.Op)] != offline {
			t.Errorf("rule %s (op %s): offline = %v contradicts the operator partition", name, g.OpName(r.Op), offline)
		}
	}

	// Level 3: observable behavior. Fixed-only traffic must not grow the
	// engine at all (every answer is a seeded table load); the first
	// dynamic node must.
	sel, err := m.NewSelector(repro.KindHybrid, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sel.Labeler().(*core.Engine); !ok {
		t.Fatalf("hybrid selector engine is %T, want the seeded *core.Engine", sel.Labeler())
	}
	seeded := ts.NumStates()
	if sel.States() != seeded {
		t.Fatalf("fresh hybrid has %d states, want the %d seeded", sel.States(), seeded)
	}
	trans0 := sel.Transitions()

	fixedOnly, err := m.ParseTree("Plus(Load(Reg[1]), Reg[2])")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Label(fixedOnly); err != nil {
		t.Fatal(err)
	}
	if sel.States() != seeded || sel.Transitions() != trans0 {
		t.Fatalf("fixed-only traffic grew the engine: %d -> %d states, %d -> %d transitions (want seeded answers only)",
			seeded, sel.States(), trans0, sel.Transitions())
	}

	dynForest, err := m.ParseTree("Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Label(dynForest); err != nil {
		t.Fatal(err)
	}
	if sel.Transitions() == trans0 {
		t.Fatal("dynamic-operator traffic memoized nothing: the on-demand path did not run")
	}
}

// TestHybridFullyDynamicTypedError: a grammar whose every leaf operator
// is dynamic has no fixed closure; hybrid construction must fail with the
// typed ErrNoFixedClosure both when compiling in-process and when
// preloading a (necessarily empty) blob.
func TestHybridFullyDynamicTypedError(t *testing.T) {
	src := `
%name alldyn
%start stmt
%term L(0) S(1)

reg:  L      = 1 (dyn lc) "l%d"
stmt: S(reg) = 2 (1) "s %0"
`
	env := repro.DynEnv{"lc": func(n repro.DynNode) repro.Cost { return 1 }}
	m, err := repro.NewMachine("alldyn", src, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSelector(repro.KindHybrid, repro.Options{}); !errors.Is(err, repro.ErrNoFixedClosure) {
		t.Fatalf("in-process hybrid on a fully-dynamic grammar: err = %v, want ErrNoFixedClosure", err)
	}

	// Preload path: hand-encode the empty table set such a grammar would
	// produce and make sure the loader rejects it with the same typed
	// error instead of seeding a zero-state engine.
	g := m.Grammar
	ts := &automaton.TableSet{
		NumNT: g.NumNonterms(),
		Leaf:  make([]int32, g.NumOps()),
		NReps: make([][2]int32, g.NumOps()),
		Mu:    make([][2][]int32, g.NumOps()),
		T1:    make([][]int32, g.NumOps()),
		T2:    make([][]int32, g.NumOps()),
	}
	for op := range ts.Leaf {
		ts.Leaf[op] = -1
	}
	blob, err := gen.EncodeBytes(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alldyn.isel")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSelector(repro.KindHybrid, repro.Options{PreloadPath: path}); !errors.Is(err, repro.ErrNoFixedClosure) {
		t.Fatalf("preloaded empty blob: err = %v, want ErrNoFixedClosure", err)
	}
}

// TestHybridColdStartParallel: 8 workers hammer one COLD hybrid engine —
// every dynamic transition misses at once, exercising the seeded table
// reads racing the engine's construct slow path — and the result must
// match a sequential reference compile. Run under -race in CI.
func TestHybridColdStartParallel(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(`
int f(int n) { int s = 0; int i; for (i = 0; i < n; i += 1) { s += i * 3; } return s; }
int g(int a, int b) { return a * b + a - b; }
int h(int x) { if (x > 10) { return x - 1; } return x + 1; }
`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.NewSelector(repro.KindHybrid, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CompileUnit(context.Background(), unit)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := m.NewSelector(repro.KindHybrid, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				outs, err := cold.CompileUnit(context.Background(), unit)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range outs {
					if outs[i].Asm != want[i].Asm || outs[i].Cost != want[i].Cost {
						errs[w] = errors.New("parallel cold-start output differs from sequential")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if cold.States() < ref.States() {
		t.Fatalf("cold engine ended with %d states, reference has %d", cold.States(), ref.States())
	}
}

// fuzzArenas caches one dp, on-demand and hybrid selector triple per
// dynamic-rule mask, so the fuzzer's throughput is spent on forests, not
// on recompiling 64 possible grammars.
var fuzzArenas sync.Map // uint8 -> *fuzzHybridArena

type fuzzHybridArena struct {
	m        *repro.Machine
	dp       *repro.Selector
	onDemand *repro.Selector
	hybrid   *repro.Selector // nil when hybridErr is set
	// err is a failure to build the machine or the dp and on-demand
	// selectors; hybridErr the hybrid's refusal.
	err, hybridErr error
}

// fuzzHybridMachine builds a small grammar whose rules carry dynamic
// costs according to mask (bit i = rule i+1 dynamic): seeded random
// grammars mixing fixed and dynamic rules, per the boundary fuzz target.
func fuzzHybridMachine(mask uint8) (*repro.Machine, error) {
	cost := func(bit uint, fixed string) string {
		if mask&(1<<bit) != 0 {
			return "(dyn vcost)"
		}
		return "(" + fixed + ")"
	}
	src := `
%name fuzzhyb
%start stmt
%term A(0) B(0) U(1) P(2) S(2)

reg:  A           = 1 ` + cost(0, "0") + ` "a%d"
reg:  B           = 2 ` + cost(1, "1") + ` "b%d"
reg:  U(reg)      = 3 ` + cost(2, "1") + ` "u %0, %d"
reg:  P(reg, reg) = 4 ` + cost(3, "1") + ` "p %0, %1, %d"
stmt: S(reg, reg) = 5 ` + cost(4, "1") + ` "s %0, %1"
stmt: U(reg)      = 6 ` + cost(5, "2") + ` "us %0"
`
	env := repro.DynEnv{"vcost": func(n repro.DynNode) repro.Cost {
		// Deterministic, node-dependent, occasionally inapplicable: the
		// shapes a real dynamic cost takes.
		v := n.Value()
		for i := 0; i < n.NumKids(); i++ {
			v += n.Kid(i).Value()
		}
		if v%7 == 0 {
			return repro.Inf
		}
		return repro.Cost(1 + v%4)
	}}
	return repro.NewMachine("fuzzhyb", src, env)
}

func fuzzArenaFor(mask uint8) *fuzzHybridArena {
	if a, ok := fuzzArenas.Load(mask); ok {
		return a.(*fuzzHybridArena)
	}
	a := &fuzzHybridArena{}
	a.m, a.err = fuzzHybridMachine(mask)
	if a.err == nil {
		a.dp, a.err = a.m.NewSelector(repro.KindDP, repro.Options{})
	}
	if a.err == nil {
		a.onDemand, a.err = a.m.NewSelector(repro.KindOnDemand, repro.Options{})
	}
	if a.err == nil {
		a.hybrid, a.hybridErr = a.m.NewSelector(repro.KindHybrid, repro.Options{})
	}
	got, _ := fuzzArenas.LoadOrStore(mask, a)
	return got.(*fuzzHybridArena)
}

// FuzzHybridBoundary: across seeded random grammars mixing fixed and
// dynamic rules (mask) and seeded random forests, the hybrid and the
// on-demand engine must each label every node with DP's rules and
// compile it to DP's cost and assembly — the silent-divergence check on
// the seeded/on-demand boundary, against the oracle rather than each
// other, since both read one representer projection and could agree while
// both were wrong. When every leaf rule is dynamic the hybrid must refuse
// with the typed error, never construct wrong; the on-demand engine is
// still checked.
func FuzzHybridBoundary(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(3))
	f.Add(uint8(1), int64(7), uint8(4))  // dynamic leaf A
	f.Add(uint8(8), int64(42), uint8(2)) // dynamic binary P
	f.Add(uint8(32), int64(9), uint8(5)) // dynamic stmt U
	f.Add(uint8(63), int64(3), uint8(1)) // everything dynamic
	f.Add(uint8(21), int64(100), uint8(6))
	f.Fuzz(func(t *testing.T, mask uint8, seed int64, shape uint8) {
		mask &= 63
		a := fuzzArenaFor(mask)
		if a.err != nil {
			t.Fatalf("mask %06b: %v", mask, a.err)
		}
		if a.hybridErr != nil && !(mask&3 == 3 && errors.Is(a.hybridErr, repro.ErrNoFixedClosure)) {
			// Only both leaves dynamic earns the documented refusal.
			t.Fatalf("mask %06b: hybrid: %v", mask, a.hybridErr)
		}
		g := a.m.Grammar
		cfg := ir.RandomConfig{
			Seed:       seed,
			Trees:      1 + int(shape%3),
			MaxDepth:   2 + int(shape/3%4),
			MaxLeafVal: 1 << (shape % 8),
		}
		if shape%5 == 0 {
			cfg.Share = true
			cfg.MaxLeafVal = 3
		}
		forest := ir.RandomForest(g, cfg)

		want, err := a.dp.Label(forest)
		if err != nil {
			t.Fatalf("mask %06b seed %d: dp label: %v", mask, seed, err)
		}
		outD, errD := a.dp.Compile(context.Background(), forest)
		for _, sel := range []*repro.Selector{a.onDemand, a.hybrid} {
			if sel == nil {
				continue
			}
			lab, err := sel.Label(forest)
			if err != nil {
				t.Fatalf("mask %06b seed %d: %s label: %v", mask, seed, sel.Kind(), err)
			}
			for _, n := range forest.Nodes {
				for nt := 0; nt < g.NumNonterms(); nt++ {
					if got, dp := lab.RuleAt(n, grammar.NT(nt)), want.RuleAt(n, grammar.NT(nt)); got != dp {
						t.Fatalf("mask %06b seed %d node %d (%s) nt %d: %s rule %d != dp rule %d",
							mask, seed, n.Index, g.OpName(n.Op), nt, sel.Kind(), got, dp)
					}
				}
			}
			out, err := sel.Compile(context.Background(), forest)
			if (err == nil) != (errD == nil) {
				t.Fatalf("mask %06b seed %d: %s err=%v, dp err=%v", mask, seed, sel.Kind(), err, errD)
			}
			if err == nil && (out.Cost != outD.Cost || out.Asm != outD.Asm) {
				t.Fatalf("mask %06b seed %d: %s cost %d != dp cost %d, or their assembly differs",
					mask, seed, sel.Kind(), out.Cost, outD.Cost)
			}
		}
	})
}
