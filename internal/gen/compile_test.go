package gen_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/gen"
)

// TestCompileDynamicGrammarIsHybrid: Compile accepts a grammar with
// dynamic-cost rules and returns its fixed-operator closure — the blob the
// cluster's recipe election serves with the hybrid engine. The static
// engine still refuses the grammar, blob or no blob.
func TestCompileDynamicGrammarIsHybrid(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fingerprint != m.Grammar.Fingerprint() || res.Stats.States == 0 {
		t.Fatalf("stats %+v: want the full grammar's fingerprint and a nonempty closure", res.Stats)
	}
	path := filepath.Join(t.TempDir(), "x86.isel")
	if err := os.WriteFile(path, res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := cluster.ResolveBlobRecipe("x86", path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != repro.KindHybrid || rec.M.Grammar.Fingerprint() != m.Grammar.Fingerprint() {
		t.Fatalf("recipe %s for %s, want hybrid on the full grammar", rec.Kind, rec.M.Grammar.Name)
	}
	sel, err := rec.M.NewSelector(rec.Kind, rec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if sel.States() != res.Stats.States {
		t.Fatalf("hybrid seeded %d states from the blob, want %d", sel.States(), res.Stats.States)
	}
	for _, opt := range []repro.Options{{}, {PreloadPath: path}} {
		if _, err := m.NewSelector(repro.KindStatic, opt); err == nil {
			t.Fatalf("static selector constructed on a grammar with dynamic rules (options %+v)", opt)
		}
	}
}
