// Cancellation-contract tests for the v2 context-first API: a cancelled
// context stops compilation cooperatively — before labeling when already
// cancelled, at a reducer checkpoint within a bounded number of nodes when
// cancelled mid-cover, and between functions in unit compilation.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/grammar"
	"repro/internal/metrics"
	"repro/internal/reduce"
)

// TestCompilePreCancelled: an already-ended context never starts work —
// no labeling, no reduction, typed ctx.Err() back.
func TestCompilePreCancelled(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	c := &metrics.Counters{}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{Metrics: c})
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sel.Compile(ctx, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compile on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := sel.Compile(ctx, f, repro.WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compile(WithWorkers(2)) on cancelled ctx = %v, want context.Canceled", err)
	}
	unit, err := m.CompileMinC("int main() { return 1; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.CompileUnit(ctx, unit); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompileUnit on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := sel.CompileUnit(ctx, unit, repro.WithWorkers(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel CompileUnit on cancelled ctx = %v, want context.Canceled", err)
	}
	if c.NodesLabeled != 0 || c.NodesReduced != 0 {
		t.Errorf("cancelled calls did work: %v", c)
	}
}

// TestCoverCancelsWithinCheckpoint pins the bound the reducer promises:
// once the context ends mid-cover, at most CancelCheckInterval more
// (node, nonterminal) visits happen before the walk aborts with ctx.Err().
// The forest is a huge flat expression chain, far larger than the
// checkpoint interval, and the visitor cancels at a fixed visit — fully
// deterministic, single-goroutine.
func TestCoverCancelsWithinCheckpoint(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	// A deep ADD chain: REG[1] + 1 + 1 + ... (tens of thousands of nodes).
	const adds = 40000
	var sb strings.Builder
	sb.WriteString("RET(")
	for i := 0; i < adds; i++ {
		sb.WriteString("ADD(")
	}
	sb.WriteString("REG[1]")
	for i := 0; i < adds; i++ {
		fmt.Fprintf(&sb, ", CNST[%d])", i%7)
	}
	sb.WriteString(")")
	f, err := m.ParseTree(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := sel.Label(f)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(m.Grammar, m.Env, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: the full cover visits far more combinations than the
	// cancellation bound, or this test proves nothing.
	full := &metrics.Counters{}
	if _, err := rd.CoverContext(context.Background(), f, lab, nil, full); err != nil {
		t.Fatal(err)
	}
	if full.NodesReduced < 4*reduce.CancelCheckInterval {
		t.Fatalf("forest too small to observe the checkpoint bound: %d visits", full.NodesReduced)
	}

	const cancelAt = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cm := &metrics.Counters{}
	fired := 0
	visitsAtCancel := int64(-1)
	_, err = rd.CoverContext(ctx, f, lab, func(n *repro.Node, nt grammar.NT, r *grammar.Rule) {
		if fired++; fired == cancelAt {
			cancel()
			// The visitor runs inline on the covering goroutine, so this
			// read is an exact snapshot of the visit count at cancellation.
			visitsAtCancel = cm.NodesReduced
		}
	}, cm)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cover = %v, want context.Canceled", err)
	}
	if visitsAtCancel < 0 {
		t.Fatal("cover finished before the visitor could cancel")
	}
	// After the cancel, the walk may run to the end of its current
	// checkpoint window — at most one full interval of further visits.
	extra := cm.NodesReduced - visitsAtCancel
	if extra > reduce.CancelCheckInterval {
		t.Errorf("cover visited %d more combinations after cancellation, want <= %d",
			extra, reduce.CancelCheckInterval)
	}
	if cm.NodesReduced >= full.NodesReduced {
		t.Errorf("cancelled cover did all %d visits of the full cover", full.NodesReduced)
	}
	t.Logf("full cover: %d visits; cancelled at visit %d: %d extra visits before stopping (interval %d)",
		full.NodesReduced, visitsAtCancel, extra, reduce.CancelCheckInterval)
}

// TestCoverCancelsAcrossManyRoots: the checkpoint counter spans roots —
// a forest of thousands of tiny trees (each far below one checkpoint
// interval) must still stop within the bound, not run to completion
// because every root resets the poll cadence.
func TestCoverCancelsAcrossManyRoots(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	const trees = 20000
	var sb strings.Builder
	for i := 0; i < trees; i++ {
		fmt.Fprintf(&sb, "RET(ADD(REG[1], CNST[%d]))\n", i%5)
	}
	f, err := m.ParseTree(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := sel.Label(f)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(m.Grammar, m.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cm := &metrics.Counters{}
	fired := 0
	visitsAtCancel := int64(-1)
	_, err = rd.CoverContext(ctx, f, lab, func(n *repro.Node, nt grammar.NT, r *grammar.Rule) {
		if fired++; fired == 500 {
			cancel()
			visitsAtCancel = cm.NodesReduced
		}
	}, cm)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled many-root cover = %v, want context.Canceled", err)
	}
	extra := cm.NodesReduced - visitsAtCancel
	if extra > reduce.CancelCheckInterval {
		t.Errorf("many-root cover visited %d more combinations after cancellation, want <= %d",
			extra, reduce.CancelCheckInterval)
	}
	t.Logf("many-root cover: cancelled at visit %d, %d extra visits (interval %d)",
		visitsAtCancel, extra, reduce.CancelCheckInterval)
}

// TestCompileUnitCancelsBetweenFunctions: cancellation raised while one
// function compiles stops the unit loop at the next per-function
// checkpoint — later functions are never labeled.
func TestCompileUnitCancelsBetweenFunctions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The dynamic-cost hook runs during labeling; the magic immediate 99
	// appears only in the second function, so the cancel fires there.
	env := repro.DynEnv{"trip": func(n repro.DynNode) repro.Cost {
		if n.Value() == 99 {
			cancel()
		}
		return 1
	}}
	m, err := repro.NewMachine("trip", `%name trip
%start stmt
%term Asgn(2) Reg(0) Cnst(0)
reg: Reg (0)
reg: Cnst (dyn trip)
stmt: Asgn(reg, reg) (1) "mov %1, (%0)"
`, env)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := m.NewSelector(repro.KindOnDemand, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build a "unit": four single-statement forests compiled through
	// the sequential per-function loop via repeated Compile, mirroring
	// CompileUnit's checkpoint, then the real CompileUnit over a lowered
	// unit for the x86 path below.
	forests := make([]*repro.Forest, 4)
	for i := range forests {
		val := 7
		if i == 1 {
			val = 99
		}
		f, err := m.ParseTree(fmt.Sprintf("Asgn(Reg[1], Cnst[%d])", val))
		if err != nil {
			t.Fatal(err)
		}
		forests[i] = f
	}
	compiled := 0
	var firstErr error
	for _, f := range forests {
		if err := ctx.Err(); err != nil {
			firstErr = err
			break
		}
		if _, err := sel.Compile(ctx, f); err != nil {
			firstErr = err
			break
		}
		compiled++
	}
	if !errors.Is(firstErr, context.Canceled) {
		t.Fatalf("loop error = %v, want context.Canceled", firstErr)
	}
	// Function 0 compiled; function 1 tripped the cancel (its own small
	// cover may still have finished); functions 2 and 3 never started.
	if compiled > 2 {
		t.Errorf("compiled %d functions after cancellation in the second", compiled)
	}
}
