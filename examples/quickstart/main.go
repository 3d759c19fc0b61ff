// Quickstart: the smallest end-to-end use of the public API.
//
// It loads the literature's running-example machine description, selects
// instructions for the classic store-add-load tree with all three engines,
// and shows the read-modify-write rule firing on a DAG — the situation
// dynamic costs exist for, and the situation offline automata cannot
// handle but on-demand automata can.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	m, err := repro.LoadMachine("demo")
	if err != nil {
		log.Fatal(err)
	}

	// A tree: the store and load addresses are distinct nodes, so the
	// add-to-memory instruction may NOT be used.
	tree, err := m.ParseTree("Store(Reg[1], Plus(Load(Reg[1]), Reg[2]))")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tree input (distinct addresses):")
	for _, kind := range repro.Kinds() {
		sel, err := m.NewSelector(kind, repro.Options{})
		if err != nil {
			// The static kind must fail: the grammar has a dynamic-cost
			// rule.
			fmt.Printf("  %-9s %v\n", kind, err)
			continue
		}
		out, err := sel.Compile(context.Background(), tree)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s cost=%d instructions=%d\n", kind, out.Cost, out.Instructions)
	}

	// The same shape as a DAG: one shared address node. The dynamic cost
	// check passes and a single read-modify-write instruction is selected.
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dag := buildRMWDag(m)
	out, err := sel.Compile(context.Background(), dag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDAG input (shared address) with the on-demand automaton:\n")
	fmt.Printf("  cost=%d instructions=%d\n%s", out.Cost, out.Instructions, out.Asm)
	fmt.Printf("  automaton grew to %d states, %d transitions\n", sel.States(), sel.Transitions())
}

// buildRMWDag constructs Store(a, Plus(Load(a), v)) with a shared.
func buildRMWDag(m *repro.Machine) *repro.Forest {
	b := m.NewBuilder()
	a := b.Leaf("Reg", 1)
	v := b.Leaf("Reg", 2)
	root := b.Node("Store", a, b.Node("Plus", b.Node("Load", a), v))
	b.Root(root)
	return b.Finish()
}
