package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestSaveLoadRoundTrip: a restored automaton must be byte-for-byte as
// warm as the one that was saved — zero misses on the same workload, and
// identical labelings.
func TestSaveLoadRoundTrip(t *testing.T) {
	d := md.MustLoad("x86")
	warm, err := New(d.Grammar, d.Env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var forests []*ir.Forest
	for _, c := range workload.MustCompileAll(d.Grammar) {
		forests = append(forests, c.Forests()...)
	}
	for _, f := range forests {
		warm.LabelStates(f)
	}

	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m := &metrics.Counters{}
	restored, err := New(d.Grammar, d.Env, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.NumStates() != warm.NumStates() {
		t.Errorf("states %d != %d", restored.NumStates(), warm.NumStates())
	}
	if restored.NumTransitions() != warm.NumTransitions() {
		t.Errorf("transitions %d != %d", restored.NumTransitions(), warm.NumTransitions())
	}
	for _, f := range forests {
		a := warm.LabelStates(f)
		b := restored.LabelStates(f)
		for _, n := range f.Nodes {
			sa, sb := a.StateAt(n), b.StateAt(n)
			for nt := range sa.Delta {
				if sa.Delta[nt] != sb.Delta[nt] || sa.Rule[nt] != sb.Rule[nt] {
					t.Fatalf("restored labeling differs at node %d", n.Index)
				}
			}
		}
	}
	if m.TableMisses != 0 {
		t.Errorf("restored automaton had %d misses on the saved workload", m.TableMisses)
	}
}

func TestLoadRejectsWrongGrammar(t *testing.T) {
	x86 := md.MustLoad("x86")
	mips := md.MustLoad("mips")
	e, _ := New(x86.Grammar, x86.Env, Config{})
	f := ir.MustParseTree(x86.Grammar, "RET(ADD(REG[1], CNST[2]))")
	e.Label(f)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := New(mips.Grammar, mips.Env, Config{})
	err := other.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "different grammar") {
		t.Errorf("expected fingerprint mismatch, got %v", err)
	}
}

func TestLoadRejectsGarbageAndTruncation(t *testing.T) {
	d := md.MustLoad("demo")
	fresh := func() *Engine {
		e, _ := New(d.Grammar, d.Env, Config{})
		return e
	}
	if err := fresh().Load(strings.NewReader("not an automaton")); err == nil {
		t.Error("expected bad-magic error")
	}
	// Valid prefix, truncated tail.
	e := fresh()
	f := ir.MustParseTree(d.Grammar, "Store(Reg, Plus(Load(Reg), Reg))")
	e.Label(f)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{7, 20, buf.Len() / 2, buf.Len() - 3} {
		if err := fresh().Load(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("expected error for truncation at %d bytes", cut)
		}
	}
}

func TestLoadRequiresFreshEngine(t *testing.T) {
	d := md.MustLoad("demo")
	e, _ := New(d.Grammar, d.Env, Config{})
	f := ir.MustParseTree(d.Grammar, "Store(Reg, Reg)")
	e.Label(f)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("loading into a used engine must fail")
	}
}

func TestFingerprintDistinguishesGrammars(t *testing.T) {
	a := md.MustLoad("x86").Grammar.Fingerprint()
	b := md.MustLoad("mips").Grammar.Fingerprint()
	c := md.MustLoad("x86").Grammar.Fingerprint()
	if a == b {
		t.Error("different grammars share a fingerprint")
	}
	if a != c {
		t.Error("fingerprint is not deterministic")
	}
}
