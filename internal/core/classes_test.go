package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/grammar"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestClassTableShape pins the class-keyed table shape on the corpus. A
// fresh engine's first pass builds every state an id-keyed engine built
// (x86 74, mips 49, sparc 48, alpha 49, jit64 44) but constructs at most
// 350 transitions over the five machines, where keying by child state id
// constructed 824; and the warm engines' transition tables — everything
// MemoryBytes counts beside the states — total at most 64 KB, where the
// id-indexed dense grids alone took 206 KB.
func TestClassTableShape(t *testing.T) {
	wantStates := map[string]int{"x86": 74, "mips": 49, "sparc": 48, "alpha": 49, "jit64": 44}
	built, tables := 0, 0
	for _, name := range []string{"x86", "mips", "sparc", "alpha", "jit64"} {
		d := md.MustLoad(name)
		m := &metrics.Counters{}
		e, err := New(d.Grammar, d.Env, Config{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range workload.MustCompileAll(d.Grammar) {
			for _, f := range c.Forests() {
				e.ReleaseLabeling(e.LabelStates(f))
			}
		}
		bytes := e.MemoryBytes() - e.Table().MemoryBytes()
		t.Logf("%s: %d states, %d transitions built, %d B of transition tables",
			name, e.NumStates(), m.TransitionsAdded, bytes)
		if e.NumStates() != wantStates[name] {
			t.Errorf("%s: %d states, want %d", name, e.NumStates(), wantStates[name])
		}
		built += int(m.TransitionsAdded)
		tables += bytes
	}
	t.Logf("five machines: %d transitions built, %d B of transition tables", built, tables)
	if built > 350 {
		t.Errorf("first corpus pass built %d transitions over five machines, want at most 350", built)
	}
	if tables > 64<<10 {
		t.Errorf("warm transition tables take %d B over five machines, want at most %d", tables, 64<<10)
	}
}

// TestSeededRefusesForeignClasses: NewSeeded adopts a table set's
// projection rows as its classes, so it must refuse rows the projection
// disagrees with — one projection class split over two representers
// (with the transition tables extended consistently, so only the split is
// wrong), or a state moved into another class — with ErrClassMismatch,
// and accept the generator's own.
func TestSeededRefusesForeignClasses(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	fresh := func() *automaton.TableSet {
		ts, _, err := automaton.GenerateTables(g, automaton.StaticConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	if _, err := NewSeeded(g, d.Env, Config{}, fresh()); err != nil {
		t.Fatalf("the generator's own table set: %v", err)
	}
	// A unary fixed operator with two classes or more, one of which
	// holds at least two states; the last of them moves.
	ts := fresh()
	op, moved := -1, -1
	for o := range g.Ops {
		if g.Ops[o].Arity != 1 || g.HasDynRules(grammar.OpID(o)) || ts.NReps[o][0] < 2 {
			continue
		}
		mu := ts.Mu[o][0]
		for s := len(mu) - 1; s > 0 && moved < 0; s-- {
			if slices.Index(mu, mu[s]) < s {
				op, moved = o, s
			}
		}
		if moved >= 0 {
			break
		}
	}
	if moved < 0 {
		t.Fatal("no unary operator has a class of two states")
	}

	split := fresh()
	rep := split.Mu[op][0][moved]
	split.Mu[op][0][moved] = split.NReps[op][0]
	split.NReps[op][0]++
	split.T1[op] = append(split.T1[op], split.T1[op][rep])
	if _, err := NewSeeded(g, d.Env, Config{}, split); !errors.Is(err, ErrClassMismatch) {
		t.Errorf("one projection class split over two representers: NewSeeded = %v, want ErrClassMismatch", err)
	}

	merged := fresh()
	other := (merged.Mu[op][0][moved] + 1) % merged.NReps[op][0]
	merged.Mu[op][0][moved] = other
	if _, err := NewSeeded(g, d.Env, Config{}, merged); !errors.Is(err, ErrClassMismatch) {
		t.Errorf("a state moved into another class: NewSeeded = %v, want ErrClassMismatch", err)
	}
}
