package repro

import "repro/internal/automaton"

// KindHybrid is the on-demand engine with a head start: it starts from
// the ahead-of-time closure of the grammar's fixed operators (those
// without dynamic-cost rules), adopted into its transition tables, so
// fixed operators over seeded states hit from the first request, while
// dynamic-cost operators construct their states on demand as under
// KindOnDemand. Seeded and constructed states share one hash-consed
// state table (see core.NewSeeded), so grammars with dynamic rules, which
// KindStatic must reject outright, serve their fixed majority warm from
// the start. KindStatic is the same engine on a fixed-cost grammar, whose
// closure leaves nothing to construct.
//
// Tables resolve exactly like KindStatic's: Options.PreloadPath (a
// `.isel` blob written by iselgen for the full grammar) when set, else
// the fixed-operator closure computed in-process. The blob must carry
// the FULL grammar's fingerprint: stripped-grammar blobs are a different
// grammar (rules renumbered) and are rejected by the fingerprint check.
//
// Construction fails with an error matching ErrNoFixedClosure when every
// leaf operator carries dynamic rules — such a grammar has no fixed
// closure to seed, and KindOnDemand is the right engine. Hybrid selectors
// do not persist their automaton (see Selector.SupportsPersistence).
const KindHybrid Kind = "hybrid"

// ErrNoFixedClosure is the typed error hybrid construction fails with for
// a grammar whose every leaf operator carries dynamic-cost rules (whether
// compiling in-process or preloading a blob): such a grammar has no
// fixed closure. Match with errors.Is and fall back to KindOnDemand.
var ErrNoFixedClosure = automaton.ErrNoFixedClosure
