package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grammar"
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

// persistHeader is the byte length of a saved automaton's header: magic,
// grammar fingerprint, nonterminal count and state count. State entries
// follow as (delta, rule) pairs of 8 bytes each.
const persistHeader = len(persistMagic) + 3*8

// TestLoadChecksSavedStates: a saved automaton whose framing is intact
// but whose states break the per-state rules automaton.ValidateState
// applies — a rule id of -2, or -1 on a finite cost, a negative cost, or
// a chain rule recorded for a nonterminal it does not derive — must fail
// to load instead of mislabeling or hanging. A header claiming 2^24
// states must fail at EOF without allocating for the claim.
func TestLoadChecksSavedStates(t *testing.T) {
	d := md.MustLoad("x86")
	warm, _ := New(d.Grammar, d.Env, Config{})
	for _, c := range workload.MustCompileAll(d.Grammar) {
		for _, f := range c.Forests() {
			warm.LabelStates(f)
		}
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	save := buf.Bytes()
	// The first finite entry: its rule is a valid id.
	at := persistHeader
	for grammar.Cost(int32(binary.LittleEndian.Uint32(save[at:]))).IsInf() {
		at += 16
	}
	// A finite entry whose nonterminal is the source of some chain rule:
	// recording that rule there made the emitter follow the chain forever.
	g := d.Grammar
	loopAt, loopRule := -1, -1
	for e := at; loopAt < 0 && e+16 <= len(save); e += 16 {
		nt := (e - persistHeader) / 16 % g.NumNonterms()
		if grammar.Cost(int32(binary.LittleEndian.Uint32(save[e:]))).IsInf() {
			continue
		}
		for ri, r := range g.Rules {
			if r.IsChain && int(r.ChainRHS) == nt {
				loopAt, loopRule = e, ri
				break
			}
		}
	}
	if loopAt < 0 {
		t.Fatal("no finite entry is the source of a chain rule")
	}
	for _, c := range []struct {
		name       string
		off        int
		val        uint64
		wantSubstr string
	}{
		{"rule -2", at + 8, uint64(uint32(0xfffffffe)), "outside grammar"},
		{"rule -1 on a finite cost", at + 8, uint64(uint32(0xffffffff)), "not cost-normalized"},
		{"negative cost", at, uint64(uint32(0xfffffffb)), "negative cost"},
		{"chain rule back to its own nonterminal", loopAt + 8, uint64(loopRule), "derives nonterminal"},
	} {
		bad := bytes.Clone(save)
		binary.LittleEndian.PutUint64(bad[c.off:], c.val)
		e, _ := New(d.Grammar, d.Env, Config{})
		if err := e.Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), c.wantSubstr) {
			t.Errorf("%s: Load = %v, want an error containing %q", c.name, err, c.wantSubstr)
		}
	}

	claim := bytes.Clone(save[:persistHeader])
	binary.LittleEndian.PutUint64(claim[persistHeader-8:], 1<<24)
	var before, after runtime.MemStats
	e, _ := New(d.Grammar, d.Env, Config{})
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := e.Load(bytes.NewReader(claim))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header claiming 2^24 states and carrying none loaded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("a %d-byte header claiming 2^24 states allocated %d bytes", len(claim), alloc)
	}
}
