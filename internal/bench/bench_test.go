package bench

import (
	"strings"
	"testing"
)

// These tests pin the qualitative claims the experiments must show: who
// wins, in which direction, and that the tables render.

func TestE1Shapes(t *testing.T) {
	rows, table, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllGrammars) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormRules < r.SrcRules {
			t.Errorf("%s: normalization cannot shrink the rule count (%d < %d)",
				r.Grammar, r.NormRules, r.SrcRules)
		}
		if r.FixedStates <= 0 || r.FixedTrans <= 0 || r.TableBytes <= 0 {
			t.Errorf("%s: empty automaton stats: %+v", r.Grammar, r)
		}
		if r.Grammar != "demo" && r.DynRules == 0 {
			t.Errorf("%s: machine descriptions must carry dynamic rules", r.Grammar)
		}
	}
	if !strings.Contains(table.String(), "x86") {
		t.Error("table missing x86 row")
	}
}

func TestE2Shapes(t *testing.T) {
	rows, _, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The central claim: workloads touch a strict subset of the full
		// automaton.
		if r.ODFixedStates >= r.FullStates {
			t.Errorf("%s: on-demand fixed states %d must be < full %d",
				r.Grammar, r.ODFixedStates, r.FullStates)
		}
		if r.FractionFixed <= 0 || r.FractionFixed >= 1 {
			t.Errorf("%s: fraction %f out of range", r.Grammar, r.FractionFixed)
		}
		if r.ODDynStates < r.ODFixedStates {
			t.Errorf("%s: dynamic signatures cannot reduce the state count (%d < %d)",
				r.Grammar, r.ODDynStates, r.ODFixedStates)
		}
	}
}

func TestE3Converges(t *testing.T) {
	for _, g := range []string{"x86", "jit64"} {
		points, _, err := RunE3(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) < 8 {
			t.Fatalf("%s: too few corpus points", g)
		}
		// States must be nondecreasing and the curve must flatten: the
		// second half of the corpus adds less than the first half.
		firstHalf := points[len(points)/2].States
		total := points[len(points)-1].States
		if total < firstHalf {
			t.Fatalf("%s: states decreased", g)
		}
		if total-firstHalf >= firstHalf {
			t.Errorf("%s: no convergence: first half %d states, second half added %d",
				g, firstHalf, total-firstHalf)
		}
		for i := 1; i < len(points); i++ {
			if points[i].States < points[i-1].States || points[i].Nodes <= points[i-1].Nodes {
				t.Errorf("%s: non-monotone curve at %d", g, i)
			}
		}
	}
}

func TestE4Shapes(t *testing.T) {
	rows, _, err := RunE4("x86")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatal("too few programs")
	}
	for _, r := range rows {
		// DP must be the most expensive labeler per node; warm on-demand
		// must sit near the static lower bound; cold in between.
		if r.DPWork <= r.ODWarmWork {
			t.Errorf("%s: dp work %f must exceed warm od %f", r.Program, r.DPWork, r.ODWarmWork)
		}
		if r.ODColdWork <= r.ODWarmWork {
			t.Errorf("%s: cold %f must exceed warm %f", r.Program, r.ODColdWork, r.ODWarmWork)
		}
		if r.ODColdWork >= r.DPWork {
			t.Errorf("%s: cold on-demand %f must still beat dp %f (it runs the DP only on misses)",
				r.Program, r.ODColdWork, r.DPWork)
		}
		if r.StaticWork != 1.0 {
			t.Errorf("%s: static must be exactly one probe per node, got %f", r.Program, r.StaticWork)
		}
		if r.ODWarmWork > 3.0 {
			t.Errorf("%s: warm on-demand work %f too far from the lookup bound", r.Program, r.ODWarmWork)
		}
		if r.WorkRatio < 2 {
			t.Errorf("%s: speedup %f implausibly small", r.Program, r.WorkRatio)
		}
	}
}

func TestE5Figure(t *testing.T) {
	rows, fig, err := RunE5("jit64")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !strings.Contains(fig, "#") {
		t.Error("empty figure")
	}
}

func TestE6Shapes(t *testing.T) {
	rows, _, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.CostsEqual {
			t.Errorf("%s: engines disagreed on %d derivations", r.Grammar, r.DerivsChecked)
		}
		if r.StateGrowth < 1.0 || r.StateGrowth > 3.0 {
			t.Errorf("%s: dynamic state growth %f outside the 'modest' band", r.Grammar, r.StateGrowth)
		}
		if r.ODWarmWork >= r.DPWork {
			t.Errorf("%s: warm on-demand %f must beat dp %f with dynamic rules active",
				r.Grammar, r.ODWarmWork, r.DPWork)
		}
		if r.DynPerNode <= 0 {
			t.Errorf("%s: corpus never hit a dynamic rule", r.Grammar)
		}
	}
}

func TestE7Shapes(t *testing.T) {
	for _, g := range []string{"x86", "mips"} {
		rows, _, err := RunE7(g)
		if err != nil {
			t.Fatal(err)
		}
		better := 0
		for _, r := range rows {
			// Removing rules can never improve optimal cost.
			if r.CostRatio < 1.0 {
				t.Errorf("%s/%s: stripping rules made code cheaper (%f)", g, r.Program, r.CostRatio)
			}
			if r.CostRatio > 1.0 {
				better++
			}
		}
		if better < len(rows)/2 {
			t.Errorf("%s: dynamic rules improved only %d of %d programs", g, better, len(rows))
		}
	}
}

func TestE8Shapes(t *testing.T) {
	rows, _, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FullBytes <= 0 || r.ODBytes <= 0 {
			t.Errorf("%s: zero-size tables", r.Grammar)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	tab, err := RunAblationDeltaCap()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(AllGrammars) {
		t.Error("delta-cap ablation incomplete")
	}
	tab2, err := RunAblationHash("jit64")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab2.Rows) != 2 {
		t.Error("hash ablation incomplete")
	}
}

func TestSVShapes(t *testing.T) {
	rows, table, warmth, err := RunServer([]string{"jit64"}, []int{1, 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // direct baseline + two client counts
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Clients != 0 || rows[0].Speedup != 1.0 {
		t.Errorf("first row must be the direct baseline: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Jobs != int64(r.Clients)*rows[0].Jobs/int64(rows[0].Passes)*int64(r.Passes) {
			t.Errorf("clients=%d: jobs=%d inconsistent with corpus size", r.Clients, r.Jobs)
		}
		// Identical traffic on identically warmed engines: the automaton
		// must end at the same size in every configuration.
		if r.States != rows[0].States || r.Trans != rows[0].Trans {
			t.Errorf("clients=%d: warmth %d/%d differs from direct %d/%d",
				r.Clients, r.States, r.Trans, rows[0].States, rows[0].Trans)
		}
		if r.NsPerNode <= 0 {
			t.Errorf("clients=%d: no throughput measured", r.Clients)
		}
	}
	if len(warmth.Rows) == 0 || len(table.Rows) != 3 {
		t.Error("tables incomplete")
	}
}

// TestSVMixedMachines: the mixed replay drives several machines through
// one server; per-machine warmth must match a single-machine run (each
// engine sees exactly its own traffic) and the accounting invariant holds
// across the machine mix.
func TestSVMixedMachines(t *testing.T) {
	rows, table, warmth, err := RunServer([]string{"jit64", "mips"}, []int{2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want direct + one client count", len(rows))
	}
	if rows[0].Grammar != "jit64+mips" {
		t.Errorf("label = %q", rows[0].Grammar)
	}
	// Summed warmth must equal the direct baseline's: identical traffic,
	// identically warmed engines, machine by machine.
	if rows[1].States != rows[0].States || rows[1].Trans != rows[0].Trans {
		t.Errorf("mixed warmth %d/%d differs from direct %d/%d",
			rows[1].States, rows[1].Trans, rows[0].States, rows[0].Trans)
	}
	// The warmth curve covers both machines.
	seen := map[string]bool{}
	for _, r := range warmth.Rows {
		seen[r[0]] = true
	}
	if !seen["jit64"] || !seen["mips"] {
		t.Errorf("warmth curve machines = %v, want jit64 and mips", seen)
	}
	if len(table.Rows) != 2 {
		t.Error("throughput table incomplete")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "title", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Note("a note")
	s := tab.String()
	for _, want := range []string{"T — title", "a", "bb", "333", "note: a note", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	bars := Bars("fig", []string{"x", "yy"}, []float64{1, 2}, "u")
	if !strings.Contains(bars, "##") {
		t.Errorf("bars missing marks: %s", bars)
	}
}
