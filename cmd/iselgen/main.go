// Command iselgen is the ahead-of-time table compiler: it computes the
// tree-parsing automaton of a grammar offline (internal/gen) and writes
// it as an `.isel` blob, loadable through Options.PreloadPath and by
// `iselserver -preload` for machines that are fully warm before their
// first request.
//
// Usage:
//
//	iselgen -machine x86 -out x86.isel
//	iselgen -machine x86 -fixed -out x86.isel
//	iselgen -grammar mydesc.gr -out mydesc.isel
//	iselgen -machine jit64 -fixed -stats
//
// Dynamic-cost rules cannot be tabulated offline (the limitation the
// paper's on-demand engine lifts), so the closure covers the grammar's
// fixed operators. For a fixed-cost grammar that is the whole automaton,
// served by the `static` engine kind. For a grammar with dynamic rules
// the blob keeps the FULL grammar (rule numbering and fingerprint) and is
// served by the `hybrid` kind, which answers the fixed operators from the
// tables and builds the dynamic ones on demand. Pass -fixed to strip the
// dynamic rules first and compile the fixed-cost subset instead, exactly
// what a burg user would feed the offline generator.
//
// -stats prints the closure report: states, representer classes,
// transition entries, table and blob bytes, and generation time. When the
// closure is pruned by -max-states the report carries the truncation
// diagnostics instead and iselgen exits nonzero — a pruned table set is
// never written.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/automaton"
	"repro/internal/gen"
	"repro/internal/grammar"
	"repro/internal/md"
)

func main() {
	machine := flag.String("machine", "", "built-in machine description to compile (x86, mips, sparc, alpha, jit64, demo)")
	grammarFile := flag.String("grammar", "", "burg-style grammar source file to compile (alternative to -machine)")
	fixed := flag.Bool("fixed", false, "strip dynamic-cost rules first and compile the fixed-cost subset (static engine) instead of the full grammar's fixed operators (hybrid engine)")
	out := flag.String("out", "", "output path of the .isel blob")
	stats := flag.Bool("stats", false, "print the closure report (states, transitions, table bytes, generation time)")
	maxStates := flag.Int("max-states", 0, "closure state bound (0 = generator default); a pruned closure fails with diagnostics")
	flag.Parse()

	if err := run(*machine, *grammarFile, *out, *fixed, *stats, *maxStates); err != nil {
		fmt.Fprintln(os.Stderr, "iselgen:", err)
		var trunc *automaton.TruncatedError
		if errors.As(err, &trunc) {
			fmt.Fprintf(os.Stderr, "iselgen: closure truncation report for %s:\n", trunc.Grammar)
			fmt.Fprintf(os.Stderr, "  state bound        %d\n", trunc.MaxStates)
			fmt.Fprintf(os.Stderr, "  states at the cut  %d\n", trunc.States)
			fmt.Fprintf(os.Stderr, "  transitions done   %d\n", trunc.Transitions)
			fmt.Fprintf(os.Stderr, "  work items pending %d\n", trunc.PendingWork)
			fmt.Fprintln(os.Stderr, "  a pruned table set is never written; raise -max-states or fix the grammar's chain-rule structure")
		}
		os.Exit(1)
	}
}

func run(machine, grammarFile, out string, fixed, stats bool, maxStates int) error {
	g, err := loadGrammar(machine, grammarFile, fixed)
	if err != nil {
		return err
	}
	res, err := gen.Compile(g, gen.Config{MaxStates: maxStates})
	if err != nil {
		return err
	}
	if stats {
		printStats(res.Stats)
	}
	if out == "" {
		if stats {
			return nil
		}
		return fmt.Errorf("no -out path (and no -stats): nothing to do; refusing to write a binary blob to stdout")
	}
	if err := os.WriteFile(out, res.Blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("iselgen: wrote %s (%d bytes) for grammar %s\n", out, len(res.Blob), g.Name)
	return nil
}

func loadGrammar(machine, grammarFile string, fixed bool) (*grammar.Grammar, error) {
	var g *grammar.Grammar
	switch {
	case machine != "" && grammarFile != "":
		return nil, fmt.Errorf("set exactly one of -machine/-grammar, not both")
	case machine != "":
		d, err := md.Load(machine)
		if err != nil {
			return nil, err
		}
		g = d.Grammar
	case grammarFile != "":
		src, err := os.ReadFile(grammarFile)
		if err != nil {
			return nil, err
		}
		g, err = grammar.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", grammarFile, err)
		}
	default:
		return nil, fmt.Errorf("set one of -machine/-grammar")
	}
	if fixed {
		return g.StripDynamic()
	}
	return g, nil
}

func printStats(s gen.Stats) {
	fmt.Printf("iselgen: grammar %s (fingerprint %016x)\n", s.Grammar, s.Fingerprint)
	fmt.Printf("  operators %d, nonterminals %d, rules %d\n", s.Ops, s.Nonterms, s.Rules)
	fmt.Printf("  states %d, representer classes %d, transition entries %d\n", s.States, s.Representers, s.TransitionEntries)
	fmt.Printf("  table bytes %d\n", s.TableBytes)
	fmt.Printf("  blob bytes %d\n", s.BlobBytes)
	fmt.Printf("  generation time %s\n", s.GenTime)
}
