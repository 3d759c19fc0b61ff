package gen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
)

// fixedGrammar loads a machine description with its dynamic rules
// stripped — the grammars the offline generator can tabulate.
func fixedGrammar(t *testing.T, name string) *grammar.Grammar {
	t.Helper()
	d, err := md.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// load builds the static kind's engine from a blob the way a served blob
// is loaded: Decode, then core.NewSeeded, which validates.
func load(g *grammar.Grammar, blob []byte) (*core.Engine, error) {
	ts, err := Decode(g, blob)
	if err != nil {
		return nil, err
	}
	return core.NewSeeded(g, nil, core.Config{}, ts)
}

// TestRoundTrip: encode/decode must reconstitute an automaton that is
// indistinguishable from the in-process generation — same table shape,
// same label for every node of a few hundred random forests.
func TestRoundTrip(t *testing.T) {
	for _, name := range md.Names() {
		g := fixedGrammar(t, name)
		res, err := Compile(g, Config{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		blob := res.Blob
		if res.Stats.BlobBytes != len(blob) || len(blob) == 0 {
			t.Errorf("%s: Stats.BlobBytes = %d, blob %d", g.Name, res.Stats.BlobBytes, len(blob))
		}
		ts, _, err := automaton.GenerateTables(g, automaton.StaticConfig{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		generated, err := core.NewSeeded(g, nil, core.Config{}, ts)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		loaded, err := load(g, blob)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if loaded.NumStates() != generated.NumStates() || loaded.NumTransitions() != generated.NumTransitions() {
			t.Fatalf("%s: loaded %d states / %d transitions, generated %d / %d",
				g.Name, loaded.NumStates(), loaded.NumTransitions(), generated.NumStates(), generated.NumTransitions())
		}
		for seed := 0; seed < 60; seed++ {
			f := ir.RandomForest(g, ir.RandomConfig{Seed: int64(seed), Trees: 3, MaxDepth: 5, MaxLeafVal: 64})
			want := generated.LabelStates(f)
			got := loaded.LabelStates(f)
			for _, n := range f.Nodes {
				for nt := 0; nt < g.NumNonterms(); nt++ {
					if want.RuleAt(n, grammar.NT(nt)) != got.RuleAt(n, grammar.NT(nt)) {
						t.Fatalf("%s seed %d node %d nt %d: loaded automaton disagrees with generated one",
							g.Name, seed, n.Index, nt)
					}
				}
			}
			generated.ReleaseLabeling(want)
			loaded.ReleaseLabeling(got)
		}
		if loaded.NumStates() != res.Stats.States || loaded.NumTransitions() != res.Stats.TransitionEntries {
			t.Errorf("%s: random forests grew the loaded closure to %d states / %d transitions, Stats %d / %d",
				g.Name, loaded.NumStates(), loaded.NumTransitions(), res.Stats.States, res.Stats.TransitionEntries)
		}
	}
}

// TestTableBytesAccounting: Stats.TableBytes, the compact footprint E1
// reports, is exactly the closure's states plus 4 bytes per projection
// entry and transition cell of its fixed operators, recounted here from
// the decoded blob.
func TestTableBytesAccounting(t *testing.T) {
	for _, name := range md.Names() {
		d, err := md.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*grammar.Grammar{d.Grammar, fixedGrammar(t, name)} {
			res, err := Compile(g, Config{})
			if errors.Is(err, automaton.ErrNoFixedClosure) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			ts, err := Decode(g, res.Blob)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			table, err := automaton.ValidateTables(g, ts)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			want := table.MemoryBytes()
			for op := range g.Ops {
				if g.HasDynRules(grammar.OpID(op)) {
					continue
				}
				want += 4 * (len(ts.Mu[op][0]) + len(ts.Mu[op][1]) + len(ts.T1[op]) + len(ts.T2[op]))
			}
			if res.Stats.TableBytes != want {
				t.Errorf("%s: Stats.TableBytes %d, recounted %d", g.Name, res.Stats.TableBytes, want)
			}
		}
	}
}

// TestEncodeDeterministic: the same grammar must serialize to the same
// bytes every time, so a regenerated `.isel` changes only when its
// grammar does.
func TestEncodeDeterministic(t *testing.T) {
	g := fixedGrammar(t, "x86")
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		res, err := Compile(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, res.Blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("two compilations of one grammar produced different blobs")
	}
}

func mustResult(t *testing.T, g *grammar.Grammar) *Result {
	t.Helper()
	res, err := Compile(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFormatVersions: version 2 is the only wire version. A blob must
// round-trip exactly (decode then re-encode gives the same bytes), and the
// same payload framed as the retired fixed-width version 1 — checksum
// recomputed, so only the magic is wrong — must fail with
// ErrUnsupportedVersion, from ReadHeader and Decode alike.
func TestFormatVersions(t *testing.T) {
	check := func(t *testing.T, g *grammar.Grammar, res *Result) {
		ts, err := Decode(g, res.Blob)
		if err != nil {
			t.Fatal(err)
		}
		again, err := EncodeBytes(g, ts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, res.Blob) {
			t.Fatal("decode then encode does not reproduce the blob")
		}
		v1 := reframe(res.Blob, "ISEL1\n")
		if _, err := ReadHeader(bytes.NewReader(v1)); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("ReadHeader of an ISEL1 blob: err = %v, want ErrUnsupportedVersion", err)
		}
		if _, err := Decode(g, v1); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("Decode of an ISEL1 blob: err = %v, want ErrUnsupportedVersion", err)
		}
	}
	for _, name := range md.Names() {
		t.Run(name+".fixed", func(t *testing.T) {
			g := fixedGrammar(t, name)
			check(t, g, mustResult(t, g))
		})
	}
	// The fixed-operator closure of a grammar with dynamic rules ships
	// over the same wire.
	t.Run("x86.hybrid", func(t *testing.T) {
		g := md.MustLoad("x86").Grammar
		check(t, g, mustResult(t, g))
	})
}

// reframe swaps a blob's magic for another of the same length and
// recomputes the trailing checksum, so the framing is valid again.
func reframe(blob []byte, magic string) []byte {
	out := append([]byte(magic), blob[len(magic):len(blob)-8]...)
	h := fnv.New64a()
	h.Write(out)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// TestTruncation: a closure pruned by MaxStates must fail with the typed
// diagnostics, never return partial tables.
func TestTruncation(t *testing.T) {
	g := fixedGrammar(t, "x86")
	_, err := Compile(g, Config{MaxStates: 10})
	var trunc *automaton.TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("err = %v, want *automaton.TruncatedError", err)
	}
	if trunc.MaxStates != 10 || trunc.States <= 10 || trunc.PendingWork == 0 {
		t.Errorf("implausible truncation diagnostics: %+v", trunc)
	}
}

// TestDecodeRejects: wrong grammar, corrupt magic, and truncated payloads
// must all be rejected with errors, not garbage tables.
func TestDecodeRejects(t *testing.T) {
	g := fixedGrammar(t, "demo")
	other := fixedGrammar(t, "jit64")
	blob := mustResult(t, g).Blob
	if _, err := Decode(other, blob); err == nil {
		t.Error("Decode accepted tables generated for a different grammar")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := Decode(g, bad); err == nil {
		t.Error("Decode accepted a corrupted magic")
	}
	if _, err := Decode(g, blob[:len(blob)-6]); err == nil {
		t.Error("Decode accepted a truncated blob")
	}
	short := append([]byte(nil), blob[:len(blob)-4]...)
	short = append(short, 0xde, 0xad, 0xbe, 0xef)
	if _, err := Decode(g, short); err == nil {
		t.Error("Decode accepted a blob with a corrupt trailer")
	}
}

// TestLoadRejectsBodyCorruption: bit flips inside the state-vector region
// leave the framing (magic, fingerprint, trailer) intact; the content
// checksum (and behind it the validator) must catch them — a corrupt blob
// must fail at load, never panic or mislabel at serve time.
func TestLoadRejectsBodyCorruption(t *testing.T) {
	g := fixedGrammar(t, "jit64")
	blob := mustResult(t, g).Blob
	// The state vectors start right after the header; flip high bits
	// through that region so deltas go negative or rules leave range.
	start := len(MagicV2) + 8 + 4 + len(g.Name) + 3*4 + g.NumOps()
	rejected := 0
	const probes = 40
	for i := 0; i < probes; i++ {
		bad := append([]byte(nil), blob...)
		bad[start+i*5] ^= 0x80
		if _, err := load(g, bad); err != nil {
			rejected++
		}
	}
	if rejected != probes {
		t.Errorf("only %d/%d corrupt-body probes rejected at load (the content checksum must catch every flip)", rejected, probes)
	}
	// A huge state count with a valid prefix must be rejected before any
	// large allocation (the States*NumNT volume bound).
	bad := append([]byte(nil), blob...)
	pos := len(MagicV2) + 8 + 4 + len(g.Name) + 8 // the states u32
	bad[pos], bad[pos+1], bad[pos+2] = 0xff, 0xff, 0xfe
	if _, err := load(g, bad); err == nil {
		t.Error("Load accepted an implausibly huge state count")
	}
}

// TestReadHeader: ReadHeader routes blobs without decoding.
func TestReadHeader(t *testing.T) {
	g := fixedGrammar(t, "demo")
	blob := mustResult(t, g).Blob
	h, err := ReadHeader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Grammar != g.Name || h.Fingerprint != g.Fingerprint() || h.States == 0 {
		t.Fatalf("bad header %+v", h)
	}
}
