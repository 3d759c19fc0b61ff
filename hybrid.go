package repro

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/core"
)

// KindHybrid closes the last cell in the paper's tradeoff matrix:
// fixed-operator transitions are answered from ahead-of-time tables
// expanded into direct state-id-indexed arrays (static-automaton speed,
// warm before the first request) while dynamic-cost operators fall
// through to the on-demand engine's hash path — so grammars with dynamic
// rules, which KindStatic must reject outright, no longer pay full
// on-demand cost for their fixed majority. Both halves share one
// hash-consed state table, so a labeling that crosses the boundary is a
// single consistent automaton.Labeling.
//
// Tables resolve exactly like KindStatic's: Options.PreloadPath (a
// `.isel` blob written by iselgen for the full grammar), then the
// process-global preload store, and finally the fixed-operator closure
// computed in-process. The blob must carry the FULL grammar's
// fingerprint: stripped-grammar blobs are a different grammar (rules
// renumbered) and are rejected by the fingerprint check.
//
// Construction fails with an error matching ErrNoFixedClosure when every
// leaf operator carries dynamic rules — such a grammar has no offline
// half, and KindOnDemand is the right engine.
const KindHybrid Kind = "hybrid"

// ErrNoFixedClosure is the typed error hybrid construction fails with for
// a grammar whose every leaf operator carries dynamic-cost rules (whether
// compiling in-process or preloading a blob): such a grammar has no
// offline half. Match with errors.Is and fall back to KindOnDemand.
var ErrNoFixedClosure = automaton.ErrNoFixedClosure

func newHybridEngine(m *Machine, opt Options) (Labeler, error) {
	ts, err := tableSet(m, opt)
	if err != nil {
		return nil, err
	}
	ov, err := automaton.NewHybridOverlay(m.Grammar, ts)
	if err != nil {
		return nil, fmt.Errorf("repro: machine %s: %w", m.Name, err)
	}
	h, err := core.NewHybrid(m.Grammar, m.Env, opt.coreConfig(), ov)
	if err != nil {
		return nil, fmt.Errorf("repro: machine %s: %w", m.Name, err)
	}
	return h, nil
}
