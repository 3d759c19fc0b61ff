package bench

import (
	"time"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/md"
	"repro/internal/metrics"
)

// RunAblationDeltaCap measures how the delta-cost cap (the finite-state
// safety valve, automaton.DefaultDeltaCap) affects offline state counts.
// For realistic grammars the cap should be irrelevant until it gets close
// to the cost spread of the rules.
func RunAblationDeltaCap() (*Table, error) {
	caps := []int{1, 2, 4, 8, 32, 128, int(automaton.DefaultDeltaCap)}
	t := &Table{
		ID:     "A1",
		Title:  "ablation: offline-automaton states by delta-cost cap (stripped grammars)",
		Header: []string{"grammar", "cap=1", "cap=2", "cap=4", "cap=8", "cap=32", "cap=128", "default"},
	}
	for _, name := range AllGrammars {
		d := md.MustLoad(name)
		fixed, err := d.Grammar.StripDynamic()
		if err != nil {
			return nil, err
		}
		cells := []string{name}
		for _, c := range caps {
			_, st, err := automaton.GenerateTables(fixed, automaton.StaticConfig{DeltaCap: grammar.Cost(c)})
			if err != nil {
				cells = append(cells, "err")
				continue
			}
			cells = append(cells, itoa(st.States))
		}
		t.AddRow(cells...)
	}
	t.Note("tiny caps merge states (possibly losing optimality); beyond the rule-cost spread the count is stable")
	return t, nil
}

// RunAblationHash compares the class-indexed direct-lookup grids against
// routing everything through the hash table (Config.ForceHash):
// the table-layout trade-off described in package core's documentation.
func RunAblationHash(gname string) (*Table, error) {
	d, err := md.Load(gname)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "A2",
		Title:  "ablation: class-grid direct lookup vs all-hash transition storage (" + gname + ", warm)",
		Header: []string{"layout", "work/node", "ns/node", "states"},
	}
	units := loadCorpus(d.Grammar)
	for _, force := range []bool{false, true} {
		m := &metrics.Counters{}
		e, err := core.New(d.Grammar, d.Env, core.Config{Metrics: m, ForceHash: force})
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			for _, f := range u.forests {
				e.Label(f)
			}
		}
		m.Reset()
		const passes = 30
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, u := range units {
				for _, f := range u.forests {
					e.ReleaseLabeling(e.LabelStates(f))
				}
			}
		}
		elapsed := time.Since(start)
		nodes := totalNodes(units)
		name := "grid+hash"
		if force {
			name = "all-hash"
		}
		t.AddRow(name, f1(m.PerNode()),
			f1(float64(elapsed.Nanoseconds())/float64(passes*nodes)), itoa(e.NumStates()))
	}
	t.Note("work units count both layouts as one probe per node; the ns/node column shows the real constant-factor gap")
	return t, nil
}
