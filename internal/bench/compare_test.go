package bench

import (
	"strings"
	"testing"
)

func perfReport(rows ...PerfRow) *PerfReport {
	return &PerfReport{Schema: 1, Rows: rows}
}

func TestComparePerf(t *testing.T) {
	base := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
			WarmLabelAllocsPerPass: 0, WarmSelectAllocsPerPass: 0},
		PerfRow{Grammar: "jit64", WarmLabelNsPerNode: 30, WarmSelectNsPerNode: 50},
	)

	// Identical and mildly improved reports pass.
	if regs := ComparePerf(base, base, 10, false); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}
	better := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 36, WarmSelectNsPerNode: 58},
		PerfRow{Grammar: "jit64", WarmLabelNsPerNode: 32, WarmSelectNsPerNode: 54},
	)
	if regs := ComparePerf(base, better, 10, false); len(regs) != 0 {
		t.Fatalf("within-tolerance compare regressed: %v", regs)
	}

	// A >10% ns regression fails.
	slower := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 45, WarmSelectNsPerNode: 60},
		PerfRow{Grammar: "jit64", WarmLabelNsPerNode: 30, WarmSelectNsPerNode: 50},
	)
	if regs := ComparePerf(base, slower, 10, false); len(regs) != 1 {
		t.Fatalf("12%% label regression not caught: %v", regs)
	}

	// The zero-alloc contract is absolute: one alloc per pass fails even
	// though 10% of zero is zero.
	leaky := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
			WarmSelectAllocsPerPass: 1},
		PerfRow{Grammar: "jit64", WarmLabelNsPerNode: 30, WarmSelectNsPerNode: 50},
	)
	if regs := ComparePerf(base, leaky, 10, false); len(regs) != 1 {
		t.Fatalf("alloc regression not caught: %v", regs)
	}

	// A grammar vanishing from the report is itself a regression.
	shrunk := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60},
	)
	if regs := ComparePerf(base, shrunk, 10, false); len(regs) != 1 {
		t.Fatalf("missing grammar not caught: %v", regs)
	}

	// allocs-only mode ignores wall-clock regressions but still enforces
	// the allocation contract.
	if regs := ComparePerf(base, slower, 10, true); len(regs) != 0 {
		t.Fatalf("allocs-only flagged a ns regression: %v", regs)
	}
	if regs := ComparePerf(base, leaky, 10, true); len(regs) != 1 {
		t.Fatalf("allocs-only missed an alloc regression: %v", regs)
	}
}

func TestComparePerfCompileColumns(t *testing.T) {
	// A baseline without the full-Compile columns (CorpusForests == 0)
	// must not gate them — older trajectory points predate the metric.
	old := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60})
	cur := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		CorpusForests: 12, WarmCompileNsPerNode: 100, WarmCompileAllocsPerPass: 12})
	if regs := ComparePerf(old, cur, 10, false); len(regs) != 0 {
		t.Fatalf("pre-compile-column baseline gated the new columns: %v", regs)
	}

	// With the columns present, ns regresses at tolerance and the
	// extra-allocs surplus is a zero baseline: any growth fails.
	base := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		CorpusForests: 12, WarmCompileNsPerNode: 100})
	slower := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		CorpusForests: 12, WarmCompileNsPerNode: 115})
	if regs := ComparePerf(base, slower, 10, false); len(regs) != 1 {
		t.Fatalf("15%% compile-ns regression not caught: %v", regs)
	}
	if regs := ComparePerf(base, slower, 10, true); len(regs) != 0 {
		t.Fatalf("allocs-only flagged a compile-ns regression: %v", regs)
	}
	leaky := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		CorpusForests: 12, WarmCompileNsPerNode: 100, WarmCompileExtraAllocsPerPass: 1})
	if regs := ComparePerf(base, leaky, 10, true); len(regs) != 1 {
		t.Fatalf("compile extra-alloc surplus not caught: %v", regs)
	}
}

func TestMarkdownDiff(t *testing.T) {
	base := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60, TableBytes: 1000},
		PerfRow{Grammar: "jit64", WarmLabelNsPerNode: 30, WarmSelectNsPerNode: 50,
			CorpusForests: 8, WarmCompileNsPerNode: 90, TableBytes: 2000},
	)
	cur := perfReport(
		PerfRow{Grammar: "x86", WarmLabelNsPerNode: 36, WarmSelectNsPerNode: 58,
			CorpusForests: 8, WarmCompileNsPerNode: 80, TableBytes: 1000},
		PerfRow{Grammar: "jit64", WarmLabelNsPerNode: 33, WarmSelectNsPerNode: 50,
			CorpusForests: 8, WarmCompileNsPerNode: 85, TableBytes: 2000},
	)
	md := MarkdownDiff(base, cur)
	for _, want := range []string{
		"| grammar |",          // header row
		"| x86 |", "| jit64 |", // one row per grammar
		"40.0 → 36.0 (-10.0%)",             // improvement, negative delta
		"30.0 → 33.0 (+10.0%)",             // regression, positive delta
		"— → 80.0",                         // column absent in the baseline
		"90.0 → 85.0 (-5.6%)",              // present in both
		"50.0 (=)", "1000 (=)", "2000 (=)", // unchanged values
	} {
		if !strings.Contains(md, want) {
			t.Errorf("MarkdownDiff output missing %q:\n%s", want, md)
		}
	}
	// Every table line must have the same column count — a malformed GFM
	// table renders as prose.
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "|") && strings.Count(line, "|") != 10 {
			t.Errorf("table line has %d pipes, want 10: %q", strings.Count(line, "|"), line)
		}
	}
}

func TestComparePerfHybridColumns(t *testing.T) {
	// A baseline without the hybrid columns (HybridStates == 0) must not
	// gate them — trajectory points before PR 7 predate the engine.
	old := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60})
	cur := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		HybridStates: 70, HybridWarmSelectNsPerNode: 55})
	if regs := ComparePerf(old, cur, 10, false); len(regs) != 0 {
		t.Fatalf("pre-hybrid baseline gated the new columns: %v", regs)
	}

	base := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		HybridStates: 70, HybridWarmSelectNsPerNode: 55})
	slower := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		HybridStates: 70, HybridWarmSelectNsPerNode: 63})
	if regs := ComparePerf(base, slower, 10, false); len(regs) != 1 {
		t.Fatalf("14%% hybrid-select regression not caught: %v", regs)
	}
	if regs := ComparePerf(base, slower, 10, true); len(regs) != 0 {
		t.Fatalf("allocs-only flagged a hybrid ns regression: %v", regs)
	}
	leaky := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		HybridStates: 70, HybridWarmSelectNsPerNode: 55,
		HybridWarmSelectAllocsPerPass: 1})
	if regs := ComparePerf(base, leaky, 10, true); len(regs) != 1 {
		t.Fatalf("hybrid alloc regression not caught: %v", regs)
	}
}

func TestComparePerfOfflineColumns(t *testing.T) {
	// The static kind's select (the offline columns) stays under both
	// gates: wall-clock in the trajectory gate, allocations in both.
	base := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		OfflineStates: 60, OfflineWarmSelectNsPerNode: 20})
	slower := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		OfflineStates: 60, OfflineWarmSelectNsPerNode: 23})
	if regs := ComparePerf(base, slower, 10, false); len(regs) != 1 || !strings.Contains(regs[0], "offline-select-ns/node") {
		t.Fatalf("15%% offline-select regression not caught: %v", regs)
	}
	if regs := ComparePerf(base, slower, 10, true); len(regs) != 0 {
		t.Fatalf("allocs-only flagged an offline ns regression: %v", regs)
	}
	leaky := perfReport(PerfRow{Grammar: "x86", WarmLabelNsPerNode: 40, WarmSelectNsPerNode: 60,
		OfflineStates: 60, OfflineWarmSelectNsPerNode: 20, OfflineWarmSelectAllocsPerPass: 1})
	if regs := ComparePerf(base, leaky, 10, true); len(regs) != 1 || !strings.Contains(regs[0], "offline-select-allocs/pass") {
		t.Fatalf("offline alloc regression not caught: %v", regs)
	}
}
