package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
)

// TestOpenTabBasic exercises the table directly: insert distinct keys
// through several growth rounds, then retrieve every one.
func TestOpenTabBasic(t *testing.T) {
	const kw = 3
	var p atomic.Pointer[openTab]
	keys := make([][]uint64, 200)
	for i := range keys {
		k := []uint64{uint64(i), uint64(i * 31), uint64(i ^ 0x5555)}
		keys[i] = k
		h := hashKey(k)
		tab := p.Load()
		switch {
		case tab == nil:
			tab = newOpenTab(kw, openTabMinCap)
			tab.insertLocked(k, h, int32(i))
			p.Store(tab)
		case tab.full():
			nt := tab.grown()
			nt.insertLocked(k, h, int32(i))
			p.Store(nt)
		default:
			tab.insertLocked(k, h, int32(i))
		}
	}
	tab := p.Load()
	if tab.entries() != len(keys) {
		t.Fatalf("entries = %d, want %d", tab.entries(), len(keys))
	}
	if tab.full() {
		t.Fatal("published table past its load factor")
	}
	for i, k := range keys {
		id, ok := tab.get(k, hashKey(k))
		if !ok || id != int32(i) {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", i, id, ok, i)
		}
	}
	if _, ok := tab.get([]uint64{999999, 0, 0}, hashKey([]uint64{999999, 0, 0})); ok {
		t.Fatal("absent key reported present")
	}
}

// TestOpenTabCollisionPileup engineers keys that all hash into the same
// bucket (identical hash values would need hash inversion; instead we use
// a tiny table so every slot collides constantly) and checks linear
// probing keeps every entry reachable through repeated growth.
func TestOpenTabCollisionPileup(t *testing.T) {
	// Single-word keys chosen so hashKey lands many of them on the same
	// masked slot at small capacities: identical low bits after mixing is
	// hard to arrange, so instead insert enough keys that every bucket of
	// the first few capacities overflows many times over.
	var p atomic.Pointer[openTab]
	const n = 4096
	for i := 0; i < n; i++ {
		k := []uint64{uint64(i) << 7} // sparse keys: worse spread before mixing
		h := hashKey(k)
		tab := p.Load()
		switch {
		case tab == nil:
			tab = newOpenTab(1, openTabMinCap)
			tab.insertLocked(k, h, int32(i))
			p.Store(tab)
		case tab.full():
			nt := tab.grown()
			nt.insertLocked(k, h, int32(i))
			p.Store(nt)
		default:
			tab.insertLocked(k, h, int32(i))
		}
	}
	tab := p.Load()
	for i := 0; i < n; i++ {
		k := []uint64{uint64(i) << 7}
		id, ok := tab.get(k, hashKey(k))
		if !ok || id != int32(i) {
			t.Fatalf("key %d lost after growth: got (%d, %v)", i, id, ok)
		}
	}
}

// TestOpenTabGrowUnderContention mirrors the engine's publication
// protocol: one writer inserts (and grows) under a mutex while reader
// goroutines hammer get through the atomic pointer. Readers must only
// ever see ids the writer published — run under -race to validate the
// memory ordering, not just the results.
func TestOpenTabGrowUnderContention(t *testing.T) {
	const (
		kw      = 2
		total   = 2000
		readers = 4
	)
	var (
		p    atomic.Pointer[openTab]
		mu   sync.Mutex
		done atomic.Bool
		wg   sync.WaitGroup
	)
	keyOf := func(i int) []uint64 { return []uint64{uint64(i), uint64(i) * 0x9e37} }
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				for i := 0; i < total; i += readers {
					k := keyOf(i)
					tab := p.Load()
					if tab == nil {
						continue
					}
					if id, ok := tab.get(k, hashKey(k)); ok && id != int32(i) {
						t.Errorf("reader saw id %d for key %d", id, i)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < total; i++ {
		k := keyOf(i)
		h := hashKey(k)
		mu.Lock()
		tab := p.Load()
		switch {
		case tab == nil:
			tab = newOpenTab(kw, openTabMinCap)
			tab.insertLocked(k, h, int32(i))
			p.Store(tab)
		case tab.full():
			nt := tab.grown()
			nt.insertLocked(k, h, int32(i))
			p.Store(nt)
		default:
			tab.insertLocked(k, h, int32(i))
		}
		mu.Unlock()
	}
	done.Store(true)
	wg.Wait()
	tab := p.Load()
	for i := 0; i < total; i++ {
		k := keyOf(i)
		if id, ok := tab.get(k, hashKey(k)); !ok || id != int32(i) {
			t.Fatalf("key %d: got (%d, %v) after writer finished", i, id, ok)
		}
	}
}

// TestEngineDynGrowUnderContention drives the whole engine path: a
// dynamic-cost grammar whose signature varies per immediate value, labeled
// from many goroutines with enough distinct values that every operator's
// open table grows several times mid-flight. The states must match a
// sequential engine (content-addressed convergence) and the labels the DP
// oracle — the same invariants the sync.Map path satisfied.
func TestEngineDynGrowUnderContention(t *testing.T) {
	g := grammar.MustParse(`%name growcontend
%start stmt
%term Asgn(2) Plus(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn imm)
reg: Plus(reg, reg) (dyn addr)
stmt: Asgn(reg, reg) (1)
`)
	env := grammar.DynEnv{
		"imm":  func(n grammar.DynNode) grammar.Cost { return grammar.Cost(n.Value() % 13) },
		"addr": func(n grammar.DynNode) grammar.Cost { return grammar.Cost(n.Value() % 7) },
	}
	const workers = 8
	forests := make([]*ir.Forest, workers)
	for i := range forests {
		forests[i] = ir.RandomForest(g, ir.RandomConfig{
			Seed: int64(7000 + i), Trees: 250, MaxDepth: 7, MaxLeafVal: 200,
		})
	}

	seq, err := New(g, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range forests {
		seq.LabelStates(f)
	}

	par, err := New(g, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dp.New(g, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := forests[i]
			got := par.LabelStates(f)
			want := oracle.LabelResult(f)
			for _, n := range f.Nodes {
				for nt := range want.Rules[n.Index] {
					if want.Rules[n.Index][nt] != got.StateAt(n).Rule[nt] {
						t.Errorf("forest %d node %d nt %d: open-table label disagrees with DP oracle", i, n.Index, nt)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if par.NumStates() != seq.NumStates() {
		t.Errorf("contended states %d != sequential %d", par.NumStates(), seq.NumStates())
	}
	if par.NumTransitions() != seq.NumTransitions() {
		t.Errorf("contended transitions %d != sequential %d", par.NumTransitions(), seq.NumTransitions())
	}
	// The workload above must actually have exercised growth, or the test
	// is vacuous: 200 immediate values × 13/7 cost classes forces well past
	// the minimum capacity on the dynamic operators.
	grew := false
	for op := range par.ops {
		if tab := par.ops[op].dyn.Load(); tab != nil && int(tab.mask)+1 > openTabMinCap {
			grew = true
		}
	}
	if !grew {
		t.Fatal("workload never grew an open table; contention test is vacuous")
	}
}

// TestEngineDynCollisionsMatchOracle is the seeded collision-heavy
// differential check: a signature-rich workload labeled sequentially must
// agree with the DP oracle entry for entry, and survive a save/load round
// trip with identical table contents (every persisted open-table entry
// re-resolves).
func TestEngineDynCollisionsMatchOracle(t *testing.T) {
	d := md.MustLoad("demo")
	e, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(40); seed < 48; seed++ {
		f := ir.RandomForest(d.Grammar, ir.RandomConfig{
			Seed: seed, Trees: 120, MaxDepth: 8, Share: seed%2 == 0, MaxLeafVal: 50,
		})
		got := e.LabelStates(f)
		want := oracle.LabelResult(f)
		for _, n := range f.Nodes {
			for nt := range want.Rules[n.Index] {
				if want.Rules[n.Index][nt] != got.StateAt(n).Rule[nt] {
					t.Fatalf("seed %d node %d nt %d: open-table label disagrees with DP oracle", seed, n.Index, nt)
				}
			}
		}
	}
}
