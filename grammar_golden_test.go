package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
)

// goldenGrammarFile pins every built-in machine description as the
// grammar parser builds it. Each machine's record is a "== name" header,
// its normal-form Dump, one "rule" line per rule with Rule.String (the
// source text diagnostics print), one "nt" line per nonterminal with its
// Helper flag, and its fingerprint. Regenerate it, when a change to a
// machine description is intended, by deleting the file and running
// TestGrammarGolden once: it writes the missing file and fails.
const goldenGrammarFile = "testdata/grammars.golden"

// renderGrammars renders the golden record of every built-in machine.
func renderGrammars(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, name := range repro.Machines() {
		m, err := repro.LoadMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		g := m.Grammar
		fmt.Fprintf(&b, "== %s\n%s", name, g.Dump())
		for i := range g.Rules {
			fmt.Fprintf(&b, "rule %d %s\n", i, g.Rules[i].String())
		}
		for _, nt := range g.Nonterms {
			fmt.Fprintf(&b, "nt %d %s helper=%t\n", nt.ID, nt.Name, nt.Helper)
		}
		fmt.Fprintf(&b, "fingerprint %016x\n", g.Fingerprint())
	}
	return b.String()
}

// TestGrammarGolden: every built-in grammar parses to the recorded
// normal form, rule source texts, nonterminals and fingerprint, byte for
// byte. A difference names the first differing machine and line.
func TestGrammarGolden(t *testing.T) {
	got := renderGrammars(t)
	want := readGolden(t, goldenGrammarFile, got)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	machine := "(before the first machine)"
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at machine %s, line %d:\n got: %q\nwant: %q", goldenGrammarFile, machine, i+1, g, w)
		}
		if name, ok := strings.CutPrefix(w, "== "); ok {
			machine = name
		}
	}
}
