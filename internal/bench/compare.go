package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Comparing two BENCH_PR<N>.json trajectory points: the CI regression
// gate. Warm-path numbers are the contract the perf PRs established —
// warm label/select ns/node and allocations per corpus pass — so a new
// trajectory point that regresses either beyond tolerance fails the
// build. Allocation counts are deterministic; ns/node is wall-clock, so
// the committed files must come from comparable runs (the same dev
// container for this repo's trajectory).

// LoadPerfReport reads a BENCH_PR<N>.json file written by
// PerfReport.WriteJSON.
func LoadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return &r, nil
}

// ComparePerf checks cur against base and returns one message per
// regression: a warm metric that grew by more than tolPct percent (or,
// for zero-allocation baselines, at all — 10% of zero is zero, and the
// zero-alloc warm path is a hard contract). Grammars present in only one
// report are reported too, so a shrunk corpus cannot hide a regression.
//
// allocsOnly restricts the comparison to the allocation metrics, which
// are deterministic — the mode CI uses to gate a freshly measured report
// against the committed baseline on shared runners whose wall-clock
// numbers are not comparable.
func ComparePerf(base, cur *PerfReport, tolPct float64, allocsOnly bool) []string {
	var regressions []string
	baseRows := map[string]PerfRow{}
	for _, row := range base.Rows {
		baseRows[row.Grammar] = row
	}
	seen := map[string]bool{}
	for _, row := range cur.Rows {
		seen[row.Grammar] = true
		b, ok := baseRows[row.Grammar]
		if !ok {
			continue // new grammar: no baseline to regress against
		}
		check := func(metric string, baseV, curV float64) {
			if exceeded(baseV, curV, tolPct) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s regressed %.2f -> %.2f (tolerance %.0f%%)",
						row.Grammar, metric, baseV, curV, tolPct))
			}
		}
		if !allocsOnly {
			check("warm-label-ns/node", b.WarmLabelNsPerNode, row.WarmLabelNsPerNode)
			check("warm-select-ns/node", b.WarmSelectNsPerNode, row.WarmSelectNsPerNode)
		}
		check("warm-label-allocs/pass", b.WarmLabelAllocsPerPass, row.WarmLabelAllocsPerPass)
		check("warm-select-allocs/pass", b.WarmSelectAllocsPerPass, row.WarmSelectAllocsPerPass)
		// Offline columns only exist from PR 5 onward; a baseline without
		// them (OfflineStates == 0) has nothing to regress against.
		if b.OfflineStates > 0 {
			if !allocsOnly {
				check("offline-select-ns/node", b.OfflineWarmSelectNsPerNode, row.OfflineWarmSelectNsPerNode)
			}
			check("offline-select-allocs/pass", b.OfflineWarmSelectAllocsPerPass, row.OfflineWarmSelectAllocsPerPass)
		}
		// Full-Compile columns only exist from PR 6 onward
		// (CorpusForests > 0 marks them present). The extra-allocs figure
		// is a zero baseline on purpose: the warm Compile contract is one
		// *Output per forest and nothing else, so any surplus fails
		// regardless of tolerance.
		if b.CorpusForests > 0 {
			if !allocsOnly {
				check("warm-compile-ns/node", b.WarmCompileNsPerNode, row.WarmCompileNsPerNode)
			}
			check("warm-compile-extra-allocs/pass", b.WarmCompileExtraAllocsPerPass, row.WarmCompileExtraAllocsPerPass)
		}
		// Hybrid columns only exist from PR 7 onward (HybridStates > 0
		// marks them present in the baseline).
		if b.HybridStates > 0 {
			if !allocsOnly {
				check("hybrid-select-ns/node", b.HybridWarmSelectNsPerNode, row.HybridWarmSelectNsPerNode)
			}
			check("hybrid-select-allocs/pass", b.HybridWarmSelectAllocsPerPass, row.HybridWarmSelectAllocsPerPass)
		}
		// Telemetry columns only exist from PR 10 onward
		// (TelemetryWarmCompileNsPerNode > 0 marks them present). The
		// extra-allocs figure is a zero baseline like the compile one: the
		// telemetry plane must be free on the warm path.
		if b.TelemetryWarmCompileNsPerNode > 0 {
			if !allocsOnly {
				check("telemetry-label-ns/node", b.TelemetryWarmLabelNsPerNode, row.TelemetryWarmLabelNsPerNode)
				check("telemetry-compile-ns/node", b.TelemetryWarmCompileNsPerNode, row.TelemetryWarmCompileNsPerNode)
			}
			check("telemetry-extra-allocs/pass", b.TelemetryExtraAllocsPerPass, row.TelemetryExtraAllocsPerPass)
		}
		// Within-report telemetry-overhead contract: the label stage's
		// instrumentation (one boundary stamp per forest) may cost at most
		// 2% over the bare warm label pass, plus a half-ns/node noise
		// floor — the pass pays one TSC read per ~57-node forest, and a
		// pure ratio gate would gate the clock, not code (the same
		// reasoning exceeded() applies to zero-allocation baselines). Both
		// figures come from paired windows in the same run, so the ratio
		// is meaningful where cross-run wall-clock is not; allocsOnly
		// still skips it because CI's shared runners make even same-run
		// ratios jitter — there the telemetry-extra-allocs zero contract
		// is the deterministic gate.
		if !allocsOnly && row.TelemetryWarmLabelNsPerNode > 0 &&
			row.TelemetryWarmLabelNsPerNode > 1.02*row.WarmLabelNsPerNode+0.5 {
			regressions = append(regressions,
				fmt.Sprintf("%s: telemetry-on warm label %.2f ns/node exceeds 1.02x telemetry-off (%.2f) + 0.5",
					row.Grammar, row.TelemetryWarmLabelNsPerNode, row.WarmLabelNsPerNode))
		}
	}
	for _, row := range base.Rows {
		if !seen[row.Grammar] {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline but missing from the new report", row.Grammar))
		}
	}
	return regressions
}

// exceeded reports whether cur regresses past base by more than tolPct
// percent. A zero baseline (the allocation contract) tolerates only
// measurement noise below half a unit, never a relative margin.
func exceeded(base, cur, tolPct float64) bool {
	if base == 0 {
		return cur > 0.5
	}
	return cur > base*(1+tolPct/100)
}

// MarkdownDiff renders a per-grammar before/after table of the warm
// metrics in GitHub-flavored markdown — what `benchdiff -markdown` prints
// and the CI perf gate posts into the build log, so a reviewer sees the
// trajectory delta without opening either JSON file. Missing columns
// (a baseline that predates a metric) render as "—"; deltas are
// percentages, negative = faster.
func MarkdownDiff(base, cur *PerfReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Perf trajectory: %s (base) → %s (current)\n\n",
		goLabel(base), goLabel(cur))
	b.WriteString("| grammar | warm label ns/node | warm select ns/node | warm compile ns/node | telemetry compile ns/node | hybrid select ns/node | select allocs/pass | compile extra allocs | table bytes |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	baseRows := map[string]PerfRow{}
	for _, row := range base.Rows {
		baseRows[row.Grammar] = row
	}
	for _, row := range cur.Rows {
		br, ok := baseRows[row.Grammar]
		if !ok {
			br = PerfRow{} // new grammar: every before-cell renders "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
			row.Grammar,
			cell(br.WarmLabelNsPerNode, row.WarmLabelNsPerNode, true),
			cell(br.WarmSelectNsPerNode, row.WarmSelectNsPerNode, true),
			cell(br.WarmCompileNsPerNode, row.WarmCompileNsPerNode, br.CorpusForests > 0),
			cell(br.TelemetryWarmCompileNsPerNode, row.TelemetryWarmCompileNsPerNode, br.TelemetryWarmCompileNsPerNode > 0),
			cell(br.HybridWarmSelectNsPerNode, row.HybridWarmSelectNsPerNode, br.HybridStates > 0),
			cell(br.WarmSelectAllocsPerPass, row.WarmSelectAllocsPerPass, true),
			cell(br.WarmCompileExtraAllocsPerPass, row.WarmCompileExtraAllocsPerPass, br.CorpusForests > 0),
			intCell(br.TableBytes, row.TableBytes))
	}
	b.WriteString("\nNegative delta = improvement. ns/node columns are wall-clock (compare same-machine runs only); allocation and byte columns are deterministic.\n")
	return b.String()
}

// cell renders one "before → after (delta%)" markdown cell. haveBase
// false (the baseline predates the column) renders the before side and
// delta as "—".
func cell(baseV, curV float64, haveBase bool) string {
	if !haveBase {
		return fmt.Sprintf("— → %s", f1(curV))
	}
	if baseV == curV {
		return fmt.Sprintf("%s (=)", f1(curV))
	}
	if baseV == 0 {
		return fmt.Sprintf("0 → %s", f1(curV))
	}
	return fmt.Sprintf("%s → %s (%+.1f%%)", f1(baseV), f1(curV), (curV-baseV)/baseV*100)
}

// intCell is cell for deterministic integer columns (byte counts).
func intCell(baseV, curV int) string {
	if baseV == curV {
		return fmt.Sprintf("%d (=)", curV)
	}
	if baseV == 0 {
		return fmt.Sprintf("0 → %d", curV)
	}
	return fmt.Sprintf("%d → %d (%+.1f%%)", baseV, curV, float64(curV-baseV)/float64(baseV)*100)
}

// goLabel summarizes one report for the diff header.
func goLabel(r *PerfReport) string {
	return fmt.Sprintf("%s, %d passes", r.GoVersion, r.Passes)
}
