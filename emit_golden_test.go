package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/ir"
	"repro/internal/workload"
)

// Golden pins of the emitted assembly. testdata/emit_corpus.golden holds
// every MinC corpus function's output on the five corpus machines: one
// header line (machine, program/function, cost, instructions) followed by
// the function's assembly. testdata/emit_random.sha256 holds one SHA-256
// per machine over the outputs of the differential suite's seeded random
// forests, trees and DAGs, on the full and the fixed-cost grammar.
// Regenerate them, when a change to the output is intended, by deleting
// both files and running TestEmittedAsmGolden once: it writes the missing
// files and fails, so a missing golden never passes.
const (
	goldenCorpusFile = "testdata/emit_corpus.golden"
	goldenDigestFile = "testdata/emit_random.sha256"
)

// corpusMachines are the machines the MinC corpus lowers for.
var corpusMachines = []string{"x86", "mips", "sparc", "alpha", "jit64"}

// goldenFunc is one corpus function lowered for one machine.
type goldenFunc struct {
	name string // program/function
	f    *ir.Forest
}

// goldenCorpus lowers every corpus program for m, one entry per function.
func goldenCorpus(t *testing.T, m *repro.Machine) []goldenFunc {
	t.Helper()
	var fns []goldenFunc
	for _, p := range workload.All() {
		u, err := m.CompileMinC(p.Src)
		if err != nil {
			t.Fatalf("%s: %s: %v", m.Name, p.Name, err)
		}
		for _, fn := range u.Funcs {
			fns = append(fns, goldenFunc{p.Name + "/" + fn.Name, fn.Forest})
		}
	}
	return fns
}

// goldenOrders returns three visit orders over fns: largest forest first,
// so the first Compile grows the pooled emitter to its maximum and every
// later forest reuses it at a smaller size, then two seeded shuffles that
// interleave growth and reuse.
func goldenOrders(fns []goldenFunc) [][]int {
	largest := make([]int, len(fns))
	for i := range largest {
		largest[i] = i
	}
	sort.SliceStable(largest, func(a, b int) bool {
		return len(fns[largest[a]].f.Nodes) > len(fns[largest[b]].f.Nodes)
	})
	orders := [][]int{largest}
	for _, seed := range []uint64{1, 2} {
		orders = append(orders, rand.New(rand.NewPCG(seed, 0)).Perm(len(fns)))
	}
	return orders
}

// renderOutput writes one function's golden record to w.
func renderOutput(w io.Writer, machine, name string, out *repro.Output) {
	fmt.Fprintf(w, "%s %s cost=%d instrs=%d\n%s", machine, name, out.Cost, out.Instructions, out.Asm)
}

// renderCorpus compiles fns through sel in the given order and renders
// the outputs in corpus order.
func renderCorpus(t *testing.T, sel *repro.Selector, fns []goldenFunc, order []int) string {
	t.Helper()
	outs := make([]*repro.Output, len(fns))
	for _, i := range order {
		out, err := sel.Compile(context.Background(), fns[i].f)
		if err != nil {
			t.Fatalf("%s %s %s: %v", sel.Machine().Name, sel.Kind(), fns[i].name, err)
		}
		outs[i] = out
	}
	var b strings.Builder
	for i, fn := range fns {
		renderOutput(&b, sel.Machine().Name, fn.name, outs[i])
	}
	return b.String()
}

// randomDigest compiles forests through sel and writes their rendered
// outputs to h; a forest without a derivation contributes one line.
func randomDigest(sel *repro.Selector, forests []*ir.Forest, arena string, h io.Writer) {
	for seed, f := range forests {
		out, err := sel.Compile(context.Background(), f)
		if err != nil {
			fmt.Fprintf(h, "%s seed %d: no derivation\n", arena, seed)
		} else {
			renderOutput(h, arena, fmt.Sprintf("seed %d", seed), out)
		}
	}
}

// firstDiff names the first line where got departs from want, with the
// machine and function whose record contains it.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	header := "(before the first record)"
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("record %q, line %d:\n got: %q\nwant: %q", header, i+1, g, w)
		}
		if w != "" && !strings.HasPrefix(w, "\t") {
			header = w
		}
	}
	return "no differing line"
}

// TestEmittedAsmGolden pins the assembly every engine must emit. The
// corpus compiles through one ondemand selector per machine in three
// orders, so its pooled emitter is reused across forests of every size,
// and through dp; each pass must match the golden file byte for byte.
// The random arenas' outputs, under ondemand and dp, must hash to the
// recorded digests.
func TestEmittedAsmGolden(t *testing.T) {
	// passes[0] is dp; passes[1:] are the ondemand orders.
	var passes [4]strings.Builder
	for _, name := range corpusMachines {
		m, err := repro.LoadMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		fns := goldenCorpus(t, m)
		dp, err := m.NewSelector(repro.KindDP, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		od, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		orders := goldenOrders(fns)
		passes[0].WriteString(renderCorpus(t, dp, fns, orders[0]))
		for oi, order := range orders {
			passes[oi+1].WriteString(renderCorpus(t, od, fns, order))
		}
	}

	var digests strings.Builder
	for _, name := range repro.Machines() {
		m, err := repro.LoadMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := m.FixedMachine()
		if err != nil {
			t.Fatal(err)
		}
		var sums [2]string
		for ki, kind := range []repro.Kind{repro.KindOnDemand, repro.KindDP} {
			h := sha256.New()
			for _, a := range []struct {
				arena string
				m     *repro.Machine
			}{{"full", m}, {"fixed", fixed}} {
				sel, err := a.m.NewSelector(kind, repro.Options{})
				if err != nil {
					t.Fatal(err)
				}
				roots, inner, leaf := opSplit(a.m.Grammar)
				forests := make([]*ir.Forest, diffSeeds)
				for seed := range forests {
					forests[seed] = ir.RandomForest(a.m.Grammar, diffConfig(seed, roots, inner, leaf))
				}
				randomDigest(sel, forests, a.arena, h)
			}
			sums[ki] = hex.EncodeToString(h.Sum(nil))
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: ondemand and dp emit different code on the random arenas", name)
		}
		fmt.Fprintf(&digests, "%s %s\n", name, sums[1])
	}

	want := readGolden(t, goldenCorpusFile, passes[0].String())
	for pi := range passes {
		what := "dp"
		if pi > 0 {
			what = fmt.Sprintf("ondemand order %d", pi-1)
		}
		if got := passes[pi].String(); got != want {
			t.Errorf("%s: corpus assembly differs from %s at %s", what, goldenCorpusFile, firstDiff(got, want))
		}
	}
	if got, want := digests.String(), readGolden(t, goldenDigestFile, digests.String()); got != want {
		t.Errorf("random-arena digests differ from %s:\n got:\n%s\nwant:\n%s", goldenDigestFile, got, want)
	}
}

// readGolden returns file's contents. A missing file is written from
// current, and the test fails.
func readGolden(t *testing.T, file, current string) string {
	t.Helper()
	b, err := os.ReadFile(file)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(file, []byte(current), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing: wrote %d bytes; review and commit it", file, len(current))
		return current
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
