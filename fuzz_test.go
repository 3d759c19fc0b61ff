package repro_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/frontend"
	"repro/internal/gen"
	"repro/internal/ir"
	"repro/internal/workload"
)

// iselTarget is one machine whose table-backed engine FuzzISELDecode
// feeds blobs to, with the corpus it must then compile.
type iselTarget struct {
	m       *repro.Machine
	kind    repro.Kind
	forests []*ir.Forest
}

// iselTargets returns the fuzz targets: x86 through the hybrid seed, and
// x86.fixed, demo.fixed and jit64.fixed through the static engine.
// demo has no MinC corpus (its four operators cannot lower MinC), so its
// corpus is seeded random forests.
func iselTargets(tb testing.TB) []iselTarget {
	x86, err := repro.LoadMachine("x86")
	if err != nil {
		tb.Fatal(err)
	}
	var out []iselTarget
	for _, tg := range []iselTarget{
		{m: x86, kind: repro.KindHybrid},
		{m: mustFixed(tb, "x86"), kind: repro.KindStatic},
		{m: mustFixed(tb, "demo"), kind: repro.KindStatic},
		{m: mustFixed(tb, "jit64"), kind: repro.KindStatic},
	} {
		g := tg.m.Grammar
		if tg.m.Name == "demo.fixed" {
			roots, inner, leaf := opSplit(g)
			for seed := 0; seed < 20; seed++ {
				tg.forests = append(tg.forests, ir.RandomForest(g, diffConfig(seed, roots, inner, leaf)))
			}
		} else {
			for _, u := range workload.MustCompileAll(g) {
				tg.forests = append(tg.forests, u.Forests()...)
			}
		}
		out = append(out, tg)
	}
	return out
}

// reseal replaces a blob's trailing checksum with the right one, so a
// mutated input reaches the parser and the table validator instead of
// stopping at the checksum.
func reseal(blob []byte) []byte {
	if len(blob) < 8 {
		return blob
	}
	out := append([]byte(nil), blob[:len(blob)-8]...)
	h := fnv.New64a()
	h.Write(out)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// FuzzISELDecode: arbitrary bytes, as given and resealed, go through the
// one blob path — Options.PreloadPath, gen.Decode, the table validator —
// for every target. Each must yield an error or an engine that compiles
// the target's whole corpus without panicking. A well-formed blob can
// carry wrong transitions, so accepted inputs are not held to DP; the
// seeds are: each target's blob from gen.Compile must load and match the
// dp oracle's cost and assembly on every corpus forest.
func FuzzISELDecode(f *testing.F) {
	targets := iselTargets(f)
	var seeds [][]byte
	for _, tg := range targets {
		res, err := gen.Compile(tg.m.Grammar, gen.Config{})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, res.Blob)
	}
	dir := f.TempDir()
	ctx := context.Background()
	for i, tg := range targets {
		path := filepath.Join(dir, "seed.isel")
		if err := os.WriteFile(path, seeds[i], 0o644); err != nil {
			f.Fatal(err)
		}
		sel, err := tg.m.NewSelector(tg.kind, repro.Options{PreloadPath: path})
		if err != nil {
			f.Fatalf("%s seed: %v", tg.m.Name, err)
		}
		oracle, err := tg.m.NewSelector(repro.KindDP, repro.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for j, forest := range tg.forests {
			want, wantErr := oracle.Compile(ctx, forest)
			got, err := sel.Compile(ctx, forest)
			if (err == nil) != (wantErr == nil) || err == nil && (got.Cost != want.Cost || got.Asm != want.Asm) {
				f.Fatalf("%s seed, forest %d: %s (%v) disagrees with dp (%v)", tg.m.Name, j, tg.kind, err, wantErr)
			}
		}
		f.Add(seeds[i])
	}

	path := filepath.Join(dir, "input.isel")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, reseal(data)} {
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, tg := range targets {
				sel, err := tg.m.NewSelector(tg.kind, repro.Options{PreloadPath: path})
				if err != nil {
					continue // rejected with an error: the other allowed outcome
				}
				for _, forest := range tg.forests {
					sel.Compile(ctx, forest)
				}
			}
		}
	})
}

// automatonTarget is one machine FuzzAutomatonLoad loads saved automata
// into, with the corpus it must then compile.
type automatonTarget struct {
	m       *repro.Machine
	forests []*ir.Forest
}

// FuzzAutomatonLoad: arbitrary bytes, and mutations of warm x86 and
// jit64 saves, go through Selector.LoadAutomaton into a fresh on-demand
// selector of each machine. Each must be rejected with an error or yield
// a selector that labels, reduces and emits the machine's whole corpus
// without panicking. A well-formed save can carry wrong transitions, so
// accepted inputs are not held to DP; the seeds are: each unmodified save
// must load and match the dp oracle's cost and assembly on every corpus
// forest.
func FuzzAutomatonLoad(f *testing.F) {
	ctx := context.Background()
	var targets []automatonTarget
	for _, name := range []string{"x86", "jit64"} {
		m, err := repro.LoadMachine(name)
		if err != nil {
			f.Fatal(err)
		}
		tg := automatonTarget{m: m}
		for _, u := range workload.MustCompileAll(m.Grammar) {
			tg.forests = append(tg.forests, u.Forests()...)
		}
		targets = append(targets, tg)
	}
	fresh := func(tb testing.TB, m *repro.Machine, kind repro.Kind) *repro.Selector {
		sel, err := m.NewSelector(kind, repro.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		return sel
	}
	for _, tg := range targets {
		warm := fresh(f, tg.m, repro.KindOnDemand)
		for _, forest := range tg.forests {
			if _, err := warm.Compile(ctx, forest); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := warm.SaveAutomaton(&buf); err != nil {
			f.Fatal(err)
		}
		sel := fresh(f, tg.m, repro.KindOnDemand)
		if err := sel.LoadAutomaton(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatalf("%s seed: %v", tg.m.Name, err)
		}
		oracle := fresh(f, tg.m, repro.KindDP)
		for j, forest := range tg.forests {
			want, wantErr := oracle.Compile(ctx, forest)
			got, err := sel.Compile(ctx, forest)
			if (err == nil) != (wantErr == nil) || err == nil && (got.Cost != want.Cost || got.Asm != want.Asm) {
				f.Fatalf("%s seed, forest %d: restored selector (%v) disagrees with dp (%v)", tg.m.Name, j, err, wantErr)
			}
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A corrupt state can make selection loop rather than panic (a
		// chain rule recorded for the nonterminal it chains from, which
		// automaton.ValidateState refuses), and the fuzzer reports a hung
		// worker as a pass when its time runs out; so each input gets a
		// deadline.
		sels := make([]*repro.Selector, len(targets))
		for i, tg := range targets {
			sels[i] = fresh(t, tg.m, repro.KindOnDemand)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i, tg := range targets {
				if err := sels[i].LoadAutomaton(bytes.NewReader(data)); err != nil {
					continue // rejected with an error: the other allowed outcome
				}
				for _, forest := range tg.forests {
					sels[i].Compile(ctx, forest)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("loading a %d-byte input and compiling the corpus did not finish in 10s", len(data))
		}
	})
}

// mincTarget is one machine FuzzMinC lowers accepted programs for, with
// the on-demand selector under test and the DP oracle.
type mincTarget struct {
	m            *repro.Machine
	onDemand, dp *repro.Selector
}

// FuzzMinC: arbitrary bytes through the MinC front end (frontend.Parse,
// then frontend.Lower for x86 and jit64) must never panic, and every
// function of an accepted program must compile under the on-demand engine
// to DP's cost and assembly — or fail where DP fails. Lower turns a panic
// in its builder into an error naming a grammar that cannot host MinC;
// x86 and jit64 host it, so that error is a masked panic and fails too.
// The on-demand selectors persist across inputs, so later inputs also
// exercise warm and partly warm automata. Seeded with the corpus.
func FuzzMinC(f *testing.F) {
	for _, p := range workload.All() {
		f.Add([]byte(p.Src))
	}
	var targets []mincTarget
	for _, name := range []string{"x86", "jit64"} {
		m, err := repro.LoadMachine(name)
		if err != nil {
			f.Fatal(err)
		}
		tg := mincTarget{m: m}
		if tg.onDemand, err = m.NewSelector(repro.KindOnDemand, repro.Options{}); err != nil {
			f.Fatal(err)
		}
		if tg.dp, err = m.NewSelector(repro.KindDP, repro.Options{}); err != nil {
			f.Fatal(err)
		}
		targets = append(targets, tg)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := frontend.Parse(string(data))
		if err != nil {
			return // rejected with an error
		}
		for _, tg := range targets {
			unit, err := frontend.Lower(prog, tg.m.Grammar)
			if err != nil {
				if strings.Contains(err.Error(), "cannot host MinC") {
					t.Fatalf("%s: lowering panicked: %v", tg.m.Name, err)
				}
				continue
			}
			for _, fn := range unit.Funcs {
				got, err := tg.onDemand.Compile(ctx, fn.Forest)
				want, errD := tg.dp.Compile(ctx, fn.Forest)
				if (err == nil) != (errD == nil) {
					t.Fatalf("%s %s: ondemand err=%v, dp err=%v", tg.m.Name, fn.Name, err, errD)
				}
				if err == nil && (got.Cost != want.Cost || got.Asm != want.Asm) {
					t.Fatalf("%s %s: ondemand cost %d != dp cost %d, or their assembly differs:\n%s\n--- dp:\n%s",
						tg.m.Name, fn.Name, got.Cost, want.Cost, got.Asm, want.Asm)
				}
			}
		}
	})
}
