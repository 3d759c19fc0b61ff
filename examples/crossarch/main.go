// Cross-architecture matrix: one workload, five machine descriptions,
// four engines.
//
// The same MinC program is compiled for x86, mips, sparc, alpha and jit64
// with every engine that the grammar admits. The table shows that (a) the
// engines always agree on cost and instruction count, (b) the purely
// offline static automaton only participates after dynamic rules are
// stripped and then selects worse code — while the hybrid engine keeps the dynamic
// rules and the dp-identical cost — and (c) per-node labeling work
// separates the engines exactly as the paper describes.
//
// Run with: go run ./examples/crossarch
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	prog, err := workload.Get("matmult")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (%s)\n\n", prog.Name, prog.Note)
	fmt.Printf("%-7s %-10s %7s %7s %10s %8s\n", "machine", "engine", "cost", "instrs", "work/node", "states")

	for _, name := range []string{"x86", "mips", "sparc", "alpha", "jit64"} {
		m, err := repro.LoadMachine(name)
		if err != nil {
			log.Fatal(err)
		}
		unit, err := m.CompileMinC(prog.Src)
		if err != nil {
			log.Fatal(err)
		}

		for _, kind := range repro.Kinds() {
			machine := m
			if kind == repro.KindStatic {
				// The static automaton (tables generated at construction
				// or compiled ahead of time by iselgen) cannot host the
				// dynamic rules; compare against the stripped grammar,
				// like a burg user would.
				machine, err = m.FixedMachine()
				if err != nil {
					log.Fatal(err)
				}
				unitFixed, err := machine.CompileMinC(prog.Src)
				if err != nil {
					log.Fatal(err)
				}
				report(name, string(kind)+"*", machine, unitFixed)
				continue
			}
			report(name, string(kind), machine, unit)
		}
		fmt.Println()
	}
	fmt.Println("* static runs the stripped (fixed-cost) grammar: offline tables cannot express")
	fmt.Println("  the dynamic rules, which is why their cost column is worse and why the paper builds")
	fmt.Println("  automata on demand.")
}

func report(machine, engine string, m *repro.Machine, unit *repro.Unit) {
	c := &metrics.Counters{}
	sel, err := m.NewSelector(repro.Kind(trimStar(engine)), repro.Options{Metrics: c})
	if err != nil {
		log.Fatal(err)
	}
	// Warm pass first so the on-demand column shows the steady state.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			c.Reset()
		}
		totalCost := repro.Cost(0)
		totalInstrs := 0
		for _, fn := range unit.Funcs {
			out, err := sel.Compile(context.Background(), fn.Forest)
			if err != nil {
				log.Fatalf("%s/%s: %v", machine, engine, err)
			}
			totalCost = totalCost.Add(out.Cost)
			totalInstrs += out.Instructions
		}
		if pass == 1 {
			fmt.Printf("%-7s %-10s %7d %7d %10.1f %8d\n",
				machine, engine, totalCost, totalInstrs, c.PerNode(), sel.States())
		}
	}
}

func trimStar(s string) string {
	if len(s) > 0 && s[len(s)-1] == '*' {
		return s[:len(s)-1]
	}
	return s
}
