// Command mincc compiles MinC programs (see internal/frontend) to
// assembly through a selectable instruction-selection engine — the
// reproduction's miniature lcc.
//
// Usage:
//
//	mincc -machine x86 prog.minc
//	mincc -machine mips -engine dp -workload fact     # built-in corpus program
//	mincc -list                                       # list corpus programs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	machine := flag.String("machine", "x86", "machine description: "+strings.Join(repro.Machines(), ", "))
	engine := flag.String("engine", "ondemand", "engine: dp, static (fixed-cost grammars only), ondemand, hybrid")
	wl := flag.String("workload", "", "compile a built-in corpus program instead of a file")
	list := flag.Bool("list", false, "list built-in corpus programs")
	stats := flag.Bool("stats", false, "print selector statistics after compiling")
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-14s %s\n", p.Name, p.Note)
		}
		return
	}
	if err := run(*machine, *engine, *wl, *stats, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mincc:", err)
		os.Exit(1)
	}
}

func run(machine, engine, wl string, stats bool, args []string) error {
	var src, name string
	switch {
	case wl != "":
		p, err := workload.Get(wl)
		if err != nil {
			return err
		}
		src, name = p.Src, p.Name
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		src, name = string(data), args[0]
	default:
		return fmt.Errorf("pass exactly one source file, or -workload name (-list shows the corpus)")
	}

	m, err := repro.LoadMachine(machine)
	if err != nil {
		return err
	}
	unit, err := m.CompileMinC(src)
	if err != nil {
		return err
	}
	counters := &metrics.Counters{}
	sel, err := m.NewSelector(repro.Kind(engine), repro.Options{Metrics: counters})
	if err != nil {
		return err
	}
	fmt.Printf("; %s: %s, engine=%s\n", name, machine, engine)
	totalInstrs := 0
	var totalCost repro.Cost
	for _, fn := range unit.Funcs {
		out, err := sel.Compile(context.Background(), fn.Forest)
		if err != nil {
			return fmt.Errorf("%s: %w", fn.Name, err)
		}
		fmt.Printf("%s:  ; frame %d bytes, %d IR nodes, cost %d\n",
			fn.Name, fn.FrameSize, fn.Forest.NumNodes(), out.Cost)
		fmt.Print(out.Asm)
		totalInstrs += out.Instructions
		totalCost = totalCost.Add(out.Cost)
	}
	fmt.Printf("; total: %d instructions, cost %d\n", totalInstrs, totalCost)
	if stats {
		fmt.Printf("; counters: %s\n", counters)
		if sel.Kind() != repro.KindDP {
			fmt.Printf("; automaton: %d states, %d transitions, ~%d bytes\n",
				sel.States(), sel.Transitions(), sel.MemoryBytes())
		}
	}
	return nil
}
