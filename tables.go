package repro

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/gen"
)

// tableSet resolves the ahead-of-time tables the table-backed kinds
// (KindStatic, KindHybrid) serve, from one of two sources:
// Options.PreloadPath (a `.isel` blob written by iselgen — the serving
// path behind `iselserver -preload`) when set, else the closure computed
// here. Whatever the source, core.NewSeeded runs the result through the
// one validator, automaton.ValidateTables, before serving it.
func tableSet(m *Machine, opt Options) (*automaton.TableSet, error) {
	g := m.Grammar
	if opt.PreloadPath != "" {
		blob, err := gen.ReadFile(opt.PreloadPath)
		if err != nil {
			return nil, fmt.Errorf("repro: machine %s: %w", m.Name, err)
		}
		ts, err := gen.Decode(g, blob)
		if err != nil {
			return nil, fmt.Errorf("repro: machine %s: loading %s: %w", m.Name, opt.PreloadPath, err)
		}
		return ts, nil
	}
	ts, _, err := automaton.GenerateTables(g, automaton.StaticConfig{DeltaCap: opt.DeltaCap, MaxStates: opt.MaxStates})
	if err != nil {
		return nil, fmt.Errorf("repro: machine %s: %w", m.Name, err)
	}
	return ts, nil
}

// newSeededEngine builds the table-backed kinds: the on-demand engine
// seeded with tableSet's tables (core.NewSeeded).
func newSeededEngine(m *Machine, opt Options) (Labeler, error) {
	ts, err := tableSet(m, opt)
	if err != nil {
		return nil, err
	}
	e, err := core.NewSeeded(m.Grammar, m.Env, opt.coreConfig(), ts)
	if err != nil {
		return nil, fmt.Errorf("repro: machine %s: %w", m.Name, err)
	}
	return e, nil
}

// newStaticEngine builds KindStatic: the burg-style automaton. On a
// fixed-cost grammar the closure is the whole automaton, so the seeded
// engine serves every node from its seeded tables and never constructs.
// It cannot host dynamic-cost rules; serve a FixedMachine for grammars
// that have them.
func newStaticEngine(m *Machine, opt Options) (Labeler, error) {
	if m.Grammar.HasAnyDynRules() {
		return nil, fmt.Errorf("repro: grammar %s has dynamic-cost rules; the static automaton cannot host them (use FixedMachine, KindHybrid or KindOnDemand)", m.Grammar.Name)
	}
	return newSeededEngine(m, opt)
}
