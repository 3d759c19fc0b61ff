package gen

import (
	"bytes"
	"fmt"
	"strconv"
)

// GoSource renders a compilation result as a Go source file: the blob
// embedded as a string literal plus an init function that registers it in
// the preload store, so importing the generated package makes the
// grammar's table-backed engines construct from compiled-in tables with
// zero closure work. Output is byte-for-byte deterministic for a given grammar
// — the property the committed examples' golden check enforces.
func GoSource(pkg, varName string, res *Result) ([]byte, error) {
	if pkg == "" || varName == "" {
		return nil, fmt.Errorf("gen: GoSource needs a package and a variable name")
	}
	g, ts, blob := res.Grammar, res.Tables, res.Blob
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by iselgen; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n")
	fmt.Fprintf(&b, "// Ahead-of-time tree-parsing automaton for grammar %q\n", g.Name)
	fmt.Fprintf(&b, "// (fingerprint %016x): %d states, %d transition entries,\n",
		g.Fingerprint(), ts.NumStates(), ts.TransitionEntries())
	fmt.Fprintf(&b, "// %d blob bytes.\n", len(blob))
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "import \"repro/internal/gen\"\n\n")
	fmt.Fprintf(&b, "// %s is the .isel blob for grammar %q.\n", varName, g.Name)
	fmt.Fprintf(&b, "var %s = []byte(\"\" +\n", varName)
	const chunk = 48
	for off := 0; off < len(blob); off += chunk {
		end := off + chunk
		if end > len(blob) {
			end = len(blob)
		}
		fmt.Fprintf(&b, "\t%s +\n", strconv.Quote(string(blob[off:end])))
	}
	fmt.Fprintf(&b, "\t\"\")\n\n")
	fmt.Fprintf(&b, "func init() { gen.MustRegister(%s) }\n", varName)
	return b.Bytes(), nil
}
