package repro_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestRegistryLazyConstruction: entries materialize exactly once, on
// first Get, and every caller shares the one selector.
func TestRegistryLazyConstruction(t *testing.T) {
	reg := repro.NewRegistry()
	if err := reg.Add("x86", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("x86", repro.KindDP, repro.Options{}); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "x86" || got[1] != "jit64" {
		t.Fatalf("names = %v", got)
	}
	if reg.DefaultName() != "x86" {
		t.Fatalf("default = %q, want x86", reg.DefaultName())
	}
	for _, st := range reg.Status() {
		if st.Constructed {
			t.Fatalf("%s constructed before first Get", st.Machine)
		}
	}

	// Concurrent first Gets race to construct; all must get one selector.
	const racers = 8
	sels := make([]*repro.Selector, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sel, err := reg.Get("x86")
			if err != nil {
				t.Error(err)
				return
			}
			sels[i] = sel
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if sels[i] != sels[0] {
			t.Fatal("concurrent Gets constructed different selectors")
		}
	}

	// "" resolves to the default machine.
	m, sel, err := reg.Get("")
	if err != nil || m.Name != "x86" || sel != sels[0] {
		t.Fatalf("default Get = %v/%v/%v", m, sel, err)
	}
	// jit64 still cold; x86 constructed.
	sts := reg.Status()
	if !sts[0].Constructed || sts[1].Constructed {
		t.Fatalf("status after one machine's traffic: %+v", sts)
	}
	if _, _, err := reg.Get("vax"); err == nil {
		t.Fatal("unknown machine must fail")
	}
}

// TestRegistryAddMachineAndSelector: custom machines (NewMachine) and
// prebuilt selectors register alongside built-ins.
func TestRegistryAddMachineAndSelector(t *testing.T) {
	reg := repro.NewRegistry()
	m, err := repro.NewMachine("tiny", `
%name tiny
%start r
%term K(0) P(2)
k: K (0) "=%c"
r: P(k, k) (1) "add %0, %1 -> %d"
r: k (1) "mov %0 -> %d"
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.AddMachine(m, repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	got, sel, err := reg.Get("tiny")
	if err != nil || got != m {
		t.Fatalf("Get(tiny) = %v, %v", got, err)
	}
	f, err := m.ParseTree("P(K[1], K[2])")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sel.Compile(context.Background(), f); err != nil || out.Cost != 1 {
		t.Fatalf("compile through registry: %v, %v", out, err)
	}

	x86, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	pre, err := x86.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSelector(pre); err != nil {
		t.Fatal(err)
	}
	_, sel2, err := reg.Get("x86")
	if err != nil || sel2 != pre {
		t.Fatal("AddSelector entry must return the prebuilt selector")
	}
	if st := reg.Status(); !st[1].Constructed {
		t.Fatal("AddSelector entry must be born constructed")
	}
}

// TestRegistryPersistence: SaveAll writes one automaton file per capable
// (on-demand) machine; a fresh registry over the same directory restores
// the tables at construction, so the restored selector labels with zero
// misses.
func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	m, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := m.CompileMinC(`int f(int n) { int s = 0; int i; for (i = 0; i < n; i += 1) { s += i; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	f := unit.Funcs[0].Forest

	warm := repro.NewRegistry()
	warm.SetAutomatonDir(dir)
	if err := warm.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	// A DP and a hybrid machine ride along: SaveAll must skip them, not
	// fail. The hybrid rebuilds from its table source instead.
	if err := warm.Add("demo", repro.KindDP, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := warm.Warm("demo"); err != nil {
		t.Fatal(err)
	}
	if err := warm.Add("x86", repro.KindHybrid, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	xm, xsel, err := warm.Get("x86")
	if err != nil {
		t.Fatal(err)
	}
	if xsel.SupportsPersistence() {
		t.Error("hybrid selectors must not support automaton persistence")
	}
	xf, err := xm.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xsel.Compile(context.Background(), xf); err != nil {
		t.Fatal(err)
	}
	_, sel, err := warm.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sel.Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jit64.automaton")); err != nil {
		t.Fatalf("no saved automaton: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "demo.automaton")); !os.IsNotExist(err) {
		t.Fatalf("DP machine must not persist an automaton: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x86.automaton")); !os.IsNotExist(err) {
		t.Fatalf("hybrid machine must not persist an automaton: %v", err)
	}

	cold := repro.NewRegistry()
	cold.SetAutomatonDir(dir)
	if err := cold.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := cold.Add("x86", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	var cm metrics.Counters
	_, restored, err := cold.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Compile(context.Background(), f, repro.WithCounters(&cm))
	if err != nil {
		t.Fatal(err)
	}
	if got.Asm != want.Asm || got.Cost != want.Cost {
		t.Error("restored selector emits different code")
	}
	if cm.TableMisses != 0 {
		t.Errorf("restored selector had %d misses, want 0 (warm start)", cm.TableMisses)
	}
	// x86 has no saved file: constructs cold, still works.
	if err := cold.Warm("x86"); err != nil {
		t.Fatal(err)
	}

	// A corrupt file does not break the machine: it is quarantined
	// (renamed to .bad, logged) and construction falls back to cold
	// in-process tables that select exactly like DP. The inputs: garbage,
	// and a real x86 save with one rule id set to -2 or to -1 on a finite
	// cost — well framed, so only the per-state check catches them.
	x86Save := savedAutomaton(t, "x86")
	for _, c := range []struct {
		name, machine string
		data          []byte
	}{
		{"garbage", "mips", []byte("garbage")},
		{"rule -2", "x86", withFirstRule(x86Save, -2)},
		{"rule -1 on a finite cost", "x86", withFirstRule(x86Save, -1)},
	} {
		qdir := t.TempDir()
		path := filepath.Join(qdir, c.machine+".automaton")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := repro.NewRegistry()
		reg.SetAutomatonDir(qdir)
		if err := reg.Add(c.machine, repro.KindOnDemand, repro.Options{}); err != nil {
			t.Fatal(err)
		}
		var logged []string
		reg.SetLogger(func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		})
		m, sel, err := reg.Get(c.machine)
		if err != nil {
			t.Fatalf("%s: corrupt automaton file must fall back to cold construction, got %v", c.name, err)
		}
		if _, err := os.Stat(path + ".bad"); err != nil {
			t.Errorf("%s: corrupt file must be quarantined to %s.bad: %v", c.name, filepath.Base(path), err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt file must be moved aside, still present: %v", c.name, err)
		}
		if len(logged) == 0 {
			t.Errorf("%s: quarantine must be logged", c.name)
		}
		for _, st := range reg.Status() {
			if st.Err != "" {
				t.Errorf("%s: quarantine recovery must not leave a sticky error: %s", c.name, st.Err)
			}
		}
		assertCorpusMatchesDP(t, c.name, m, sel)
	}
}

// savedAutomaton returns the save of an on-demand selector for machine
// warmed on its whole corpus.
func savedAutomaton(t *testing.T, machine string) []byte {
	t.Helper()
	m, err := repro.LoadMachine(machine)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range workload.MustCompileAll(m.Grammar) {
		if _, err := sel.CompileUnit(context.Background(), u.Unit); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sel.SaveAutomaton(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withFirstRule returns a copy of a saved automaton whose first finite
// state entry records rule instead of its own. The save's layout: a
// 6-byte magic, the grammar fingerprint, the nonterminal and state
// counts (8 bytes each), then one (delta, rule) pair of 8-byte words per
// state and nonterminal; an infinite delta marks an underivable entry.
func withFirstRule(save []byte, rule int32) []byte {
	out := bytes.Clone(save)
	at := 6 + 3*8
	for repro.Cost(int32(binary.LittleEndian.Uint32(out[at:]))) >= repro.Inf {
		at += 16
	}
	binary.LittleEndian.PutUint64(out[at+8:], uint64(uint32(rule)))
	return out
}

// assertCorpusMatchesDP compiles m's corpus with sel and with the dp
// oracle and fails on any difference in error, cost or assembly.
func assertCorpusMatchesDP(t *testing.T, what string, m *repro.Machine, sel *repro.Selector) {
	t.Helper()
	oracle, err := m.NewSelector(repro.KindDP, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, u := range workload.MustCompileAll(m.Grammar) {
		for i, f := range u.Forests() {
			want, wantErr := oracle.Compile(ctx, f)
			got, err := sel.Compile(ctx, f)
			if (err == nil) != (wantErr == nil) || err == nil && (got.Cost != want.Cost || got.Asm != want.Asm) {
				t.Fatalf("%s: %s forest %d: %v disagrees with dp (%v)", what, u.Program.Name, i, err, wantErr)
			}
		}
	}
}

// TestStateBudgetThroughAPI: Options.MaxStates turns unbounded automaton
// growth into a typed ErrStateBudget, while an ample budget never fires.
func TestStateBudgetThroughAPI(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}

	starved, err := m.NewSelector(repro.KindOnDemand, repro.Options{MaxStates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := starved.Compile(context.Background(), f); !errors.Is(err, repro.ErrStateBudget) {
		t.Fatalf("starved compile = %v, want ErrStateBudget", err)
	}
	if starved.States() > 1 {
		t.Errorf("budget 1 but %d states materialized", starved.States())
	}
	// The selector survives: the same call keeps failing typed, not
	// panicking, and the budget does not corrupt the engine.
	if _, err := starved.Compile(context.Background(), f); !errors.Is(err, repro.ErrStateBudget) {
		t.Fatalf("second starved compile = %v, want ErrStateBudget", err)
	}

	ample, err := m.NewSelector(repro.KindOnDemand, repro.Options{MaxStates: 10000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ample.Compile(context.Background(), f)
	if err != nil || out.Asm == "" {
		t.Fatalf("ample budget compile: %v, %v", out, err)
	}
	// Warm traffic over existing states keeps working at the cap.
	if _, err := ample.Compile(context.Background(), f); err != nil {
		t.Fatalf("warm compile under budget: %v", err)
	}
}

// TestRegistryEvict: eviction resets an entry to unconstructed; the next
// Get rebuilds a fresh selector — the reset lever for capped automata.
func TestRegistryEvict(t *testing.T) {
	reg := repro.NewRegistry()
	if err := reg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	m, sel1, err := reg.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the selector so the rebuilt one is observably different.
	u, err := m.CompileMinC("int f(int a) { return a + 2; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel1.CompileUnit(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	if sel1.States() == 0 {
		t.Fatal("warmup constructed no states")
	}
	if err := reg.Evict("jit64"); err != nil {
		t.Fatal(err)
	}
	for _, st := range reg.Status() {
		if st.Machine == "jit64" && st.Constructed {
			t.Fatal("jit64 still constructed after Evict")
		}
	}
	_, sel2, err := reg.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	if sel2 == sel1 {
		t.Fatal("Get after Evict returned the evicted selector")
	}
	if sel2.States() != 0 {
		t.Fatalf("rebuilt selector starts with %d states, want 0", sel2.States())
	}
	// The old selector must keep working for callers that still hold it.
	if _, err := sel1.CompileUnit(context.Background(), u); err != nil {
		t.Fatalf("evicted selector broke for an in-flight holder: %v", err)
	}

	if err := reg.Evict("nope"); !errors.Is(err, repro.ErrUnknownMachine) {
		t.Fatalf("Evict(unknown) = %v, want ErrUnknownMachine", err)
	}

	// With persistence configured, Evict is a true reset: the saved file
	// goes too, so reconstruction cannot restore the state being shed.
	dir := t.TempDir()
	preg := repro.NewRegistry()
	preg.SetAutomatonDir(dir)
	if err := preg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	_, psel, err := preg.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psel.CompileUnit(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	if err := preg.SaveAll(); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "jit64.automaton")
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("SaveAll left no file: %v", err)
	}
	if err := preg.Evict("jit64"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(saved); !os.IsNotExist(err) {
		t.Fatalf("Evict left the persisted automaton behind (stat err = %v)", err)
	}
	_, fresh, err := preg.Get("jit64")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.States() != 0 {
		t.Fatalf("post-evict reconstruction restored %d states, want a cold engine", fresh.States())
	}
	// AddSelector entries cannot be reconstructed, so they refuse.
	hand, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	handReg := repro.NewRegistry()
	if err := handReg.AddSelector(hand); err != nil {
		t.Fatal(err)
	}
	if err := handReg.Evict(hand.Machine().Name); !errors.Is(err, repro.ErrNotEvictable) {
		t.Fatalf("Evict(AddSelector entry) = %v, want ErrNotEvictable", err)
	}
}

// TestRegistryByteBudgetLRU pins SetMaxTableBytes, the registry's one
// residency bound, on static machines (their table bytes are fixed at
// construction): a budget that holds any two of three machines evicts the
// least recently used one when the third constructs; the evicted machine
// is rebuilt on its next Get; a version draining after a swap is never a
// victim; and the boot sequence iselserver runs — warm every machine,
// then mark the still-resident ones ExpectWarm — leaves the registry
// ready even when the budget cannot hold the whole boot set.
func TestRegistryByteBudgetLRU(t *testing.T) {
	var machines []*repro.Machine
	var names []string
	total, big, bigBytes := 0, "", 0
	for _, name := range []string{"x86", "jit64", "mips"} {
		m := mustFixed(t, name)
		sel, err := m.NewSelector(repro.KindStatic, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
		names = append(names, m.Name)
		total += sel.MemoryBytes()
		if sel.MemoryBytes() > bigBytes {
			big, bigBytes = m.Name, sel.MemoryBytes()
		}
	}
	budget := total - 1 // any two machines fit, all three do not
	newRegistry := func() *repro.Registry {
		reg := repro.NewRegistry()
		reg.SetMaxTableBytes(budget)
		for _, m := range machines {
			if err := reg.AddMachine(m, repro.KindStatic, repro.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return reg
	}
	constructed := func(reg *repro.Registry) []string {
		var live []string
		for _, st := range reg.Status() {
			if st.Constructed {
				live = append(live, st.Machine)
			}
		}
		if got := reg.ResidentBytes(); got > budget {
			t.Fatalf("resident %d bytes over the %d budget with %v constructed", got, budget, live)
		}
		return live
	}
	x86, jit64, mips := names[0], names[1], names[2]

	reg := newRegistry()
	for _, name := range []string{x86, jit64} {
		if err := reg.Warm(name); err != nil {
			t.Fatal(err)
		}
	}
	if live := constructed(reg); len(live) != 2 {
		t.Fatalf("constructed = %v, want both warmed machines", live)
	}
	// Touch x86 so jit64 is the LRU victim when mips constructs.
	if _, _, err := reg.Get(x86); err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm(mips); err != nil {
		t.Fatal(err)
	}
	if live := constructed(reg); len(live) != 2 || live[0] != x86 || live[1] != mips {
		t.Fatalf("constructed after budget eviction = %v, want [%s %s]", live, x86, mips)
	}
	// The evicted machine is rebuilt on demand, as a new version, and
	// evicts the now least recently used x86.
	if _, _, err := reg.Get(jit64); err != nil {
		t.Fatal(err)
	}
	if live := constructed(reg); len(live) != 2 || live[0] != jit64 || live[1] != mips {
		t.Fatalf("constructed after re-Get = %v, want [%s %s]", live, jit64, mips)
	}
	if v := statusOf(t, reg, jit64).Version; v != 2 {
		t.Fatalf("rebuilt %s at version %d, want 2", jit64, v)
	}

	// A lease pins the largest machine's v1 across a swap. Two copies of
	// it plus any other machine exceed the budget, so the budget sheds
	// every cold machine, but never the draining version.
	if _, _, err := reg.Get(big); err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire(big)
	if err != nil {
		t.Fatal(err)
	}
	v := lease.Version
	if err := reg.Swap(big); err != nil {
		t.Fatal(err)
	}
	for _, st := range reg.Status() {
		switch {
		case st.Machine == big && (st.Version != v+1 || st.Draining != 1):
			t.Fatalf("%s after swap: version %d, draining %d; want %d and 1", big, st.Version, st.Draining, v+1)
		case st.Machine != big && st.Constructed:
			t.Fatalf("%s still resident beside a draining version; the budget should have evicted it", st.Machine)
		}
	}
	f, err := lease.Machine.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lease.Selector.Compile(context.Background(), f); err != nil {
		t.Fatalf("draining version stopped compiling: %v", err)
	}
	lease.Release()
	if st := statusOf(t, reg, big); st.Draining != 0 {
		t.Fatalf("draining = %d after the last lease released, want 0", st.Draining)
	}

	// iselserver's boot sequence under a budget below the boot set.
	boot := newRegistry()
	for _, name := range names {
		if err := boot.Warm(name); err != nil {
			t.Fatal(err)
		}
	}
	var cold []string
	for _, st := range boot.Status() {
		if !st.Constructed {
			cold = append(cold, st.Machine)
			continue
		}
		if err := boot.ExpectWarm(st.Machine); err != nil {
			t.Fatal(err)
		}
	}
	if len(cold) == 0 {
		t.Fatalf("all %d machines resident under a budget below their total", len(names))
	}
	if err := boot.Ready(); err != nil {
		t.Fatalf("Ready after the boot warm = %v, want nil", err)
	}
	// Vouching for an evicted machine is exactly what the boot sequence
	// must not do.
	if err := boot.ExpectWarm(cold[0]); err != nil {
		t.Fatal(err)
	}
	if err := boot.Ready(); err == nil {
		t.Fatalf("Ready with evicted %s marked ExpectWarm = nil, want an error", cold[0])
	}
}
