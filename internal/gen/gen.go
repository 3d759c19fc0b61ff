// Package gen is the ahead-of-time automaton compiler: the offline half
// of the paper's comparison. Where the on-demand engine (internal/core)
// constructs states lazily under traffic, gen computes a grammar's
// tree-parsing automaton — the exhaustive fixpoint over the fixed
// operators' leaf/unary/binary transitions, closed over Chase
// representer classes (automaton.GenerateTables) — before any tree is
// ever labeled, and serializes the result as a compact versioned binary
// blob (the `.isel` format; Encode/Decode). A serving process loads it
// through Options.PreloadPath, so a machine is fully warm before its
// first request.
//
// cmd/iselgen is the front end. Loading is Decode followed by the engine
// constructor's validation (core.NewSeeded): the `static` engine kind
// serves the tables of a fixed-cost grammar, the `hybrid` kind serves the
// fixed operators of a grammar with dynamic-cost rules and builds the
// rest on demand. The
// tradeoff measured against the on-demand engine is the paper's: offline
// tables cost full generation up front and cannot host dynamic-cost
// rules, but serve every request at pure table-lookup speed with zero
// construction under traffic.
package gen

import (
	"time"

	"repro/internal/automaton"
	"repro/internal/grammar"
)

// Config tunes ahead-of-time compilation.
type Config struct {
	// MaxStates bounds the closure (a generator-side safety valve, 1<<20 if
	// zero). A closure pruned by the bound fails with a
	// *automaton.TruncatedError carrying the truncation diagnostics.
	MaxStates int
}

// Stats is the closure report of one compilation — what
// `iselgen -stats` prints.
type Stats struct {
	Grammar     string
	Fingerprint uint64
	Ops         int
	Nonterms    int
	Rules       int
	// States and Representers describe the computed closure;
	// TransitionEntries counts the tabulated (compressed) transition
	// cells.
	States            int
	Representers      int
	TransitionEntries int
	// TableBytes is the in-memory footprint of the compact (compressed)
	// automaton (automaton.GenStats); BlobBytes the size of the
	// serialized `.isel` form.
	TableBytes int
	BlobBytes  int
	GenTime    time.Duration
}

// Result is a completed ahead-of-time compilation.
type Result struct {
	Grammar *grammar.Grammar
	// Tables is the closure's flat form; Blob its serialized `.isel`
	// bytes — encoded once here so callers never pay a second pass.
	Tables *automaton.TableSet
	Blob   []byte
	Stats  Stats
}

// Compile computes the closure of g's tree-parsing automaton over its
// fixed operators (automaton.GenerateTables). For a fixed-cost grammar
// that is the whole automaton, served by the `static` engine kind. For a
// grammar with dynamic-cost rules it is the `hybrid` kind's seed: the
// blob keeps the FULL grammar's fingerprint, because its states are
// genuine full-grammar states (contrast StripDynamic, which renumbers
// rules and so produces tables of a different grammar).
//
// Fails with automaton.ErrNoFixedClosure when every leaf operator carries
// dynamic rules, and with *automaton.TruncatedError when Config.MaxStates
// prunes the closure.
func Compile(g *grammar.Grammar, cfg Config) (*Result, error) {
	start := time.Now()
	ts, gst, err := automaton.GenerateTables(g, automaton.StaticConfig{MaxStates: cfg.MaxStates})
	if err != nil {
		return nil, err
	}
	blob, err := EncodeBytes(g, ts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	st := g.ComputeStats()
	return &Result{
		Grammar: g,
		Tables:  ts,
		Blob:    blob,
		Stats: Stats{
			Grammar:           g.Name,
			Fingerprint:       g.Fingerprint(),
			Ops:               st.Operators,
			Nonterms:          st.Nonterminals,
			Rules:             st.NormalizedRules,
			States:            gst.States,
			Representers:      gst.Representers,
			TransitionEntries: ts.TransitionEntries(),
			TableBytes:        gst.TableBytes,
			BlobBytes:         len(blob),
			GenTime:           elapsed,
		},
	}, nil
}
