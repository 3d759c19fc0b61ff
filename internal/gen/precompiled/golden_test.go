package precompiled

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/md"
)

// The golden check: iselgen output is deterministic, so regenerating a
// committed file in memory and comparing bytes catches any drift between
// the grammars and the committed tables (and any accidental hand edit).
// Failing here means: rerun the iselgen commands in the package comment
// and commit the result.
func TestCommittedTablesUpToDate(t *testing.T) {
	cases := []struct {
		machine string
		file    string
		varName string
	}{
		{"demo", "demo_fixed_gen.go", "demoFixedTables"},
		{"jit64", "jit64_fixed_gen.go", "jit64FixedTables"},
	}
	for _, c := range cases {
		t.Run(c.machine, func(t *testing.T) {
			d, err := md.Load(c.machine)
			if err != nil {
				t.Fatal(err)
			}
			g, err := d.Grammar.StripDynamic()
			if err != nil {
				t.Fatal(err)
			}
			res, err := gen.Compile(g, gen.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := gen.GoSource("precompiled", c.varName, res)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s is stale: regenerate with\n  go run ./cmd/iselgen -machine %s -fixed -go -pkg precompiled -out internal/gen/precompiled/%s",
					c.file, c.machine, c.file)
			}
		})
	}
}

// TestRegisteredAtInit: importing this package must have preloaded both
// grammars' tables into the store the offline engine consults.
func TestRegisteredAtInit(t *testing.T) {
	for _, machine := range []string{"demo", "jit64"} {
		d, err := md.Load(machine)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Grammar.StripDynamic()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := gen.Lookup(g.Fingerprint()); !ok {
			t.Errorf("%s: no preloaded tables registered for fingerprint %016x", g.Name, g.Fingerprint())
		}
	}
}
