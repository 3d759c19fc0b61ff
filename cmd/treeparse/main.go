// Command treeparse selects instructions for textual IR trees: the
// smallest way to watch the engines work.
//
// Usage:
//
//	treeparse -machine x86 -engine ondemand 'ASGN(ADDRL[-8], ADD(INDIR(ADDRL[-8]), CNST[1]))'
//	echo 'RET(ADD(REG[1], CNST[2]))' | treeparse -machine mips
//
// Multiple trees may be separated by newlines or semicolons. With -stats,
// engine counters and automaton sizes are printed after the assembly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/metrics"
)

func main() {
	machine := flag.String("machine", "x86", "machine description: "+strings.Join(repro.Machines(), ", "))
	engine := flag.String("engine", "ondemand", "engine: dp, static (fixed-cost grammars only), ondemand, hybrid")
	stats := flag.Bool("stats", false, "print engine counters and automaton size")
	flag.Parse()

	if err := run(*machine, *engine, *stats, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "treeparse:", err)
		os.Exit(1)
	}
}

func run(machine, engine string, stats bool, args []string) error {
	src := strings.Join(args, " ")
	if strings.TrimSpace(src) == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		src = string(data)
	}
	if strings.TrimSpace(src) == "" {
		return fmt.Errorf("no input tree (pass as argument or on stdin)")
	}
	m, err := repro.LoadMachine(machine)
	if err != nil {
		return err
	}
	f, err := m.ParseTree(src)
	if err != nil {
		return err
	}
	counters := &metrics.Counters{}
	sel, err := m.NewSelector(repro.Kind(engine), repro.Options{Metrics: counters})
	if err != nil {
		return err
	}
	out, err := sel.Compile(context.Background(), f)
	if err != nil {
		return err
	}
	fmt.Printf("; %s, engine=%s, cost=%d, instructions=%d\n", machine, engine, out.Cost, out.Instructions)
	fmt.Print(out.Asm)
	if stats {
		fmt.Printf("; counters: %s\n", counters)
		if sel.Kind() != repro.KindDP {
			fmt.Printf("; automaton: %d states, %d transitions, ~%d bytes\n",
				sel.States(), sel.Transitions(), sel.MemoryBytes())
		}
	}
	return nil
}
