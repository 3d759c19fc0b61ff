package bench

import (
	"fmt"
	"time"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/emit"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/metrics"
	"repro/internal/reduce"
	"repro/internal/workload"
)

// CorpusGrammars are the machine descriptions the MinC corpus runs on
// (demo lacks the generic IR operators and only appears in E1).
var CorpusGrammars = []string{"x86", "mips", "sparc", "alpha", "jit64"}

// AllGrammars includes the running example.
var AllGrammars = []string{"demo", "x86", "mips", "sparc", "alpha", "jit64"}

// unit is one workload program's forests on one grammar.
type unit struct {
	name    string
	forests []*ir.Forest
	nodes   int
}

func loadCorpus(g *grammar.Grammar) []unit {
	cs := workload.MustCompileAll(g)
	units := make([]unit, len(cs))
	for i, c := range cs {
		units[i] = unit{name: c.Program.Name, forests: c.Forests(), nodes: c.NumNodes()}
	}
	return units
}

func totalNodes(units []unit) int {
	n := 0
	for _, u := range units {
		n += u.nodes
	}
	return n
}

// ---------------------------------------------------------------------------
// E1 — grammar and full-automaton statistics

// E1Row is one grammar's statistics.
type E1Row struct {
	Grammar     string
	Ops         int
	Nonterms    int
	SrcRules    int
	NormRules   int
	ChainRules  int
	DynRules    int
	FixedStates int // offline automaton states (dynamic rules stripped)
	FixedTrans  int
	TableBytes  int
	GenTime     time.Duration
}

// RunE1 regenerates the grammar-statistics table.
func RunE1() ([]E1Row, *Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "grammar and offline-automaton statistics (offline generation must strip dynamic rules)",
		Header: []string{"grammar", "ops", "nonterms", "rules", "normalized", "chain", "dynamic",
			"fixed-states", "fixed-trans", "table-bytes", "gen-time"},
	}
	var rows []E1Row
	for _, name := range AllGrammars {
		d, err := md.Load(name)
		if err != nil {
			return nil, nil, err
		}
		st := d.Grammar.ComputeStats()
		fixed, err := d.Grammar.StripDynamic()
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		_, gst, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
		if err != nil {
			return nil, nil, err
		}
		gen := time.Since(start)
		row := E1Row{
			Grammar: name, Ops: st.Operators, Nonterms: st.Nonterminals,
			SrcRules: st.SourceRules, NormRules: st.NormalizedRules,
			ChainRules: st.ChainRules, DynRules: st.DynamicRules,
			FixedStates: gst.States, FixedTrans: gst.TransitionsComputed,
			TableBytes: gst.TableBytes, GenTime: gen,
		}
		rows = append(rows, row)
		t.AddRow(name, itoa(row.Ops), itoa(row.Nonterms), itoa(row.SrcRules), itoa(row.NormRules),
			itoa(row.ChainRules), itoa(row.DynRules), itoa(row.FixedStates), itoa(row.FixedTrans),
			itoa(row.TableBytes), row.GenTime.Round(10*time.Microsecond).String())
	}
	t.Note("dynamic rules cannot appear in an offline automaton; fixed-* columns describe the stripped grammar")
	return rows, t, nil
}

// ---------------------------------------------------------------------------
// E2 — on-demand automaton coverage after compiling the corpus

// E2Row reports how much of the automaton a workload actually touches.
type E2Row struct {
	Grammar       string
	CorpusNodes   int
	FullStates    int     // offline automaton of the stripped grammar
	ODFixedStates int     // on-demand states on the same stripped grammar
	FractionFixed float64 // ODFixedStates / FullStates
	ODDynStates   int     // on-demand states with dynamic rules active
	// ODTransitions counts the transitions the dynamic-rule pass built:
	// class-level constructions, one Compute per representer-class pair
	// (and signature).
	ODTransitions int
}

// RunE2 regenerates the coverage table.
func RunE2() ([]E2Row, *Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "on-demand automaton size after compiling the MinC corpus vs full offline automaton",
		Header: []string{"grammar", "IR-nodes", "full-states", "od-states(fixed)", "fraction",
			"od-states(dyn)", "od-class-transitions"},
	}
	var rows []E2Row
	for _, name := range CorpusGrammars {
		d := md.MustLoad(name)
		fixed, err := d.Grammar.StripDynamic()
		if err != nil {
			return nil, nil, err
		}
		_, full, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
		if err != nil {
			return nil, nil, err
		}
		// On-demand over the stripped grammar: strict subset of full.
		eFixed, err := core.New(fixed, nil, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		for _, u := range loadCorpus(fixed) {
			for _, f := range u.forests {
				eFixed.Label(f)
			}
		}
		// On-demand over the real grammar with dynamic rules.
		eDyn, err := core.New(d.Grammar, d.Env, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		units := loadCorpus(d.Grammar)
		for _, u := range units {
			for _, f := range u.forests {
				eDyn.Label(f)
			}
		}
		row := E2Row{
			Grammar: name, CorpusNodes: totalNodes(units),
			FullStates: full.States, ODFixedStates: eFixed.NumStates(),
			FractionFixed: float64(eFixed.NumStates()) / float64(full.States),
			ODDynStates:   eDyn.NumStates(), ODTransitions: eDyn.NumTransitions(),
		}
		rows = append(rows, row)
		t.AddRow(name, itoa(row.CorpusNodes), itoa(row.FullStates), itoa(row.ODFixedStates),
			pct(row.FractionFixed), itoa(row.ODDynStates), itoa(row.ODTransitions))
	}
	t.Note("od-states(dyn) may exceed full-states: dynamic-cost outcomes split states, which offline automata cannot represent at all")
	t.Note("od-class-transitions are class-level constructions, one per representer-class pair and signature; keyed by child state id, the same pass built 173 on x86, 162 on mips, 161 on sparc, 172 on alpha and 156 on jit64")
	return rows, t, nil
}

// ---------------------------------------------------------------------------
// E3 — convergence: states materialized vs IR nodes processed

// E3Point is one sample of the convergence curve.
type E3Point struct {
	Program string
	Nodes   int // cumulative IR nodes labeled
	States  int // states materialized so far
	Trans   int // class-level transitions constructed so far
}

// RunE3 regenerates the convergence series for the given grammar.
func RunE3(gname string) ([]E3Point, *Table, error) {
	d, err := md.Load(gname)
	if err != nil {
		return nil, nil, err
	}
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("on-demand state convergence on %s (one row per corpus program, in order)", gname),
		Header: []string{"program", "cum-nodes", "states", "class-transitions", "new-states"},
	}
	var points []E3Point
	nodes := 0
	prev := 0
	for _, u := range loadCorpus(d.Grammar) {
		for _, f := range u.forests {
			e.Label(f)
			nodes += f.NumNodes()
		}
		p := E3Point{Program: u.name, Nodes: nodes, States: e.NumStates(), Trans: e.NumTransitions()}
		points = append(points, p)
		t.AddRow(u.name, itoa(p.Nodes), itoa(p.States), itoa(p.Trans), itoa(p.States-prev))
		prev = p.States
	}
	t.Note("the curve must flatten: late programs add few or no new states")
	t.Note("class-transitions are class-level constructions; keyed by child state id, the whole corpus built 173 on x86 and 156 on jit64")
	return points, t, nil
}

// ---------------------------------------------------------------------------
// E4 — labeling cost per node, engine by engine

// E4Row compares engines on one program (or aggregate).
type E4Row struct {
	Grammar     string
	Program     string
	Nodes       int
	DPWork      float64 // work units per node
	ODColdWork  float64
	ODWarmWork  float64
	StaticWork  float64 // on the stripped grammar
	DPNsPerNode float64
	ODNsPerNode float64 // warm
	WorkRatio   float64 // DPWork / ODWarmWork
	TimeRatio   float64 // DPNs / ODNs
}

// RunE4 regenerates the per-program labeling-cost table for one grammar.
func RunE4(gname string) ([]E4Row, *Table, error) {
	d, err := md.Load(gname)
	if err != nil {
		return nil, nil, err
	}
	g := d.Grammar
	fixed, err := g.StripDynamic()
	if err != nil {
		return nil, nil, err
	}
	ts, _, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
	if err != nil {
		return nil, nil, err
	}
	static, err := core.NewSeeded(fixed, nil, core.Config{}, ts)
	if err != nil {
		return nil, nil, err
	}
	units := loadCorpus(g)
	fixedUnits := loadCorpus(fixed)

	t := &Table{
		ID:    "E4",
		Title: fmt.Sprintf("labeling work per IR node on %s (work units; ns/node from 50 timed passes)", gname),
		Header: []string{"program", "nodes", "dp", "od-cold", "od-warm", "static*",
			"dp/od-warm", "dp-ns", "od-ns", "ns-ratio"},
	}
	var rows []E4Row

	// Warm one shared engine over the whole corpus first.
	mWarmEngine, err := core.New(g, d.Env, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	for _, u := range units {
		for _, f := range u.forests {
			mWarmEngine.Label(f)
		}
	}

	dpm := &metrics.Counters{}
	dpl, err := dp.New(g, d.Env, dpm)
	if err != nil {
		return nil, nil, err
	}

	for i, u := range units {
		// DP work.
		dpm.Reset()
		for _, f := range u.forests {
			dpl.Label(f)
		}
		dpWork := dpm.PerNode()

		// Cold on-demand: fresh engine per program.
		cm := &metrics.Counters{}
		cold, err := core.New(g, d.Env, core.Config{Metrics: cm})
		if err != nil {
			return nil, nil, err
		}
		for _, f := range u.forests {
			cold.Label(f)
		}
		coldWork := cm.PerNode()

		// Warm on-demand: the shared pre-warmed engine, re-instrumented.
		wm := &metrics.Counters{}
		warm := mWarmEngine
		warm.SetMetrics(wm)
		for _, f := range u.forests {
			warm.Label(f)
		}
		warmWork := wm.PerNode()

		// Static automaton on the stripped grammar: the engine seeded
		// with the whole closure.
		sm := &metrics.Counters{}
		static.SetMetrics(sm)
		for _, f := range fixedUnits[i].forests {
			static.LabelStates(f)
		}
		static.SetMetrics(nil)
		staticWork := sm.PerNode()

		// Wall clock: repeated passes over the program. Labelings are
		// released so the timed loops measure the pooled warm path the
		// selectors actually run.
		const passes = 50
		dpStart := time.Now()
		for p := 0; p < passes; p++ {
			for _, f := range u.forests {
				dpl.ReleaseLabeling(dpl.Label(f))
			}
		}
		dpNs := float64(time.Since(dpStart).Nanoseconds()) / float64(passes*u.nodes)
		odStart := time.Now()
		for p := 0; p < passes; p++ {
			for _, f := range u.forests {
				warm.ReleaseLabeling(warm.LabelStates(f))
			}
		}
		odNs := float64(time.Since(odStart).Nanoseconds()) / float64(passes*u.nodes)

		row := E4Row{
			Grammar: gname, Program: u.name, Nodes: u.nodes,
			DPWork: dpWork, ODColdWork: coldWork, ODWarmWork: warmWork,
			StaticWork: staticWork, DPNsPerNode: dpNs, ODNsPerNode: odNs,
			WorkRatio: dpWork / warmWork, TimeRatio: dpNs / odNs,
		}
		rows = append(rows, row)
		t.AddRow(u.name, itoa(u.nodes), f1(row.DPWork), f1(row.ODColdWork), f1(row.ODWarmWork),
			f1(row.StaticWork), f2(row.WorkRatio), f1(row.DPNsPerNode), f1(row.ODNsPerNode),
			f2(row.TimeRatio))
	}
	t.Note("static* runs the stripped grammar (offline automata cannot host dynamic rules); one probe per node")
	t.Note("od-cold pays state construction; od-warm is the steady state a JIT reaches")
	return rows, t, nil
}

// ---------------------------------------------------------------------------
// E5 — per-program speedup figure

// RunE5 renders the speedup bars (dp/od-warm, time) for one grammar.
func RunE5(gname string) ([]E4Row, string, error) {
	rows, _, err := RunE4(gname)
	if err != nil {
		return nil, "", err
	}
	labels := make([]string, len(rows))
	work := make([]float64, len(rows))
	for i, r := range rows {
		labels[i] = r.Program
		work[i] = r.WorkRatio
	}
	fig := Bars(fmt.Sprintf("E5 — labeling speedup of warm on-demand automaton over DP on %s (work units)", gname),
		labels, work, "x")
	return rows, fig, nil
}

// ---------------------------------------------------------------------------
// E6 — dynamic costs on the fast path

// E6Row reports dynamic-rule behaviour per grammar.
type E6Row struct {
	Grammar       string
	DynRules      int
	DPWork        float64
	ODWarmWork    float64
	DynPerNode    float64 // dynamic evaluations per node on the warm path
	StatesFixed   int
	StatesDyn     int
	StateGrowth   float64
	CostsEqual    bool
	DerivsChecked int
}

// RunE6 regenerates the dynamic-cost table.
func RunE6() ([]E6Row, *Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "dynamic costs: warm on-demand fast path vs DP (static automata: impossible)",
		Header: []string{"grammar", "dyn-rules", "dp-work", "od-warm", "dyn/node",
			"states(fixed)", "states(dyn)", "growth", "costs-equal"},
	}
	var rows []E6Row
	for _, name := range CorpusGrammars {
		d := md.MustLoad(name)
		g := d.Grammar
		units := loadCorpus(g)

		dpm := &metrics.Counters{}
		dpl, err := dp.New(g, d.Env, dpm)
		if err != nil {
			return nil, nil, err
		}
		om := &metrics.Counters{}
		e, err := core.New(g, d.Env, core.Config{Metrics: om})
		if err != nil {
			return nil, nil, err
		}
		rd, err := reduce.New(g, d.Env, nil)
		if err != nil {
			return nil, nil, err
		}
		// Warm up, then measure the warm pass; verify per-forest costs.
		for _, u := range units {
			for _, f := range u.forests {
				e.Label(f)
			}
		}
		om.Reset()
		equal := true
		checked := 0
		for _, u := range units {
			for _, f := range u.forests {
				odLab := e.Label(f)
				dpm.Reset()
				dpLab := dpl.Label(f)
				cOD, err := rd.Cover(f, odLab, nil)
				if err != nil {
					return nil, nil, err
				}
				cDP, err := rd.Cover(f, dpLab, nil)
				if err != nil {
					return nil, nil, err
				}
				if cOD != cDP {
					equal = false
				}
				checked++
			}
		}
		odWork := om.PerNode()
		dynPerNode := float64(om.DynEvals) / float64(om.NodesLabeled)

		// DP work over the whole corpus.
		dpm.Reset()
		for _, u := range units {
			for _, f := range u.forests {
				dpl.Label(f)
			}
		}

		fixed, err := g.StripDynamic()
		if err != nil {
			return nil, nil, err
		}
		eFixed, err := core.New(fixed, nil, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		for _, u := range loadCorpus(fixed) {
			for _, f := range u.forests {
				eFixed.Label(f)
			}
		}

		st := g.ComputeStats()
		row := E6Row{
			Grammar: name, DynRules: st.DynamicRules,
			DPWork: dpm.PerNode(), ODWarmWork: odWork, DynPerNode: dynPerNode,
			StatesFixed: eFixed.NumStates(), StatesDyn: e.NumStates(),
			StateGrowth: float64(e.NumStates()) / float64(eFixed.NumStates()),
			CostsEqual:  equal, DerivsChecked: checked,
		}
		rows = append(rows, row)
		t.AddRow(name, itoa(row.DynRules), f1(row.DPWork), f1(row.ODWarmWork), f2(row.DynPerNode),
			itoa(row.StatesFixed), itoa(row.StatesDyn), f2(row.StateGrowth),
			fmt.Sprintf("%v(%d)", row.CostsEqual, row.DerivsChecked))
	}
	t.Note("growth = states(dyn)/states(fixed): the paper's claim is that dynamic signatures grow the automaton modestly")
	return rows, t, nil
}

// ---------------------------------------------------------------------------
// E7 — code quality: dynamic rules on vs stripped

// E7Row compares selected code with and without dynamic rules.
type E7Row struct {
	Grammar     string
	Program     string
	CostDyn     grammar.Cost
	CostFixed   grammar.Cost
	InstrsDyn   int
	InstrsFixed int
	CostRatio   float64 // fixed/dyn >= 1
	InstrRatio  float64
}

// RunE7 regenerates the code-quality table for one grammar.
func RunE7(gname string) ([]E7Row, *Table, error) {
	d, err := md.Load(gname)
	if err != nil {
		return nil, nil, err
	}
	g := d.Grammar
	fixed, err := g.StripDynamic()
	if err != nil {
		return nil, nil, err
	}
	dpl, err := dp.New(g, d.Env, nil)
	if err != nil {
		return nil, nil, err
	}
	dplF, err := dp.New(fixed, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	rd, err := reduce.New(g, d.Env, nil)
	if err != nil {
		return nil, nil, err
	}
	rdF, err := reduce.New(fixed, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	prog, progF := emit.Compile(g), emit.Compile(fixed)
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("code quality with dynamic rules vs fixed costs only, on %s (selected cost and emitted instructions)", gname),
		Header: []string{"program", "cost(dyn)", "cost(fixed)", "ratio", "instrs(dyn)", "instrs(fixed)", "ratio"},
	}
	var rows []E7Row
	units := loadCorpus(g)
	fixedUnits := loadCorpus(fixed)
	for i, u := range units {
		var costDyn, costFixed grammar.Cost
		instrsDyn, instrsFixed := 0, 0
		for _, f := range u.forests {
			em := prog.NewEmitter()
			c, err := rd.Cover(f, dpl.Label(f), em.Visit)
			if err != nil {
				return nil, nil, err
			}
			costDyn = costDyn.Add(c)
			instrsDyn += em.Instructions()
		}
		for _, f := range fixedUnits[i].forests {
			em := progF.NewEmitter()
			c, err := rdF.Cover(f, dplF.Label(f), em.Visit)
			if err != nil {
				return nil, nil, err
			}
			costFixed = costFixed.Add(c)
			instrsFixed += em.Instructions()
		}
		row := E7Row{
			Grammar: gname, Program: u.name,
			CostDyn: costDyn, CostFixed: costFixed,
			InstrsDyn: instrsDyn, InstrsFixed: instrsFixed,
			CostRatio:  float64(costFixed) / float64(costDyn),
			InstrRatio: float64(instrsFixed) / float64(instrsDyn),
		}
		rows = append(rows, row)
		t.AddRow(u.name, itoa(int(costDyn)), itoa(int(costFixed)), f2(row.CostRatio),
			itoa(instrsDyn), itoa(instrsFixed), f2(row.InstrRatio))
	}
	t.Note("ratio > 1.00 means dynamic rules produced cheaper/smaller code; the lcc-era papers report a few percent")
	return rows, t, nil
}

// ---------------------------------------------------------------------------
// E8 — table memory

// E8Row compares table footprints.
type E8Row struct {
	Grammar    string
	FullBytes  int
	FullStates int
	ODBytes    int
	ODStates   int
	Fraction   float64
}

// RunE8 regenerates the memory table.
func RunE8() ([]E8Row, *Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "table memory: full offline automaton vs on-demand automaton after the corpus",
		Header: []string{"grammar", "full-bytes", "full-states", "od-bytes", "od-states", "od/full"},
	}
	var rows []E8Row
	for _, name := range CorpusGrammars {
		d := md.MustLoad(name)
		fixed, err := d.Grammar.StripDynamic()
		if err != nil {
			return nil, nil, err
		}
		_, full, err := automaton.GenerateTables(fixed, automaton.StaticConfig{})
		if err != nil {
			return nil, nil, err
		}
		e, err := core.New(d.Grammar, d.Env, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		for _, u := range loadCorpus(d.Grammar) {
			for _, f := range u.forests {
				e.Label(f)
			}
		}
		row := E8Row{
			Grammar: name, FullBytes: full.TableBytes, FullStates: full.States,
			ODBytes: e.MemoryBytes(), ODStates: e.NumStates(),
			Fraction: float64(e.MemoryBytes()) / float64(full.TableBytes),
		}
		rows = append(rows, row)
		t.AddRow(name, itoa(row.FullBytes), itoa(row.FullStates), itoa(row.ODBytes),
			itoa(row.ODStates), f2(row.Fraction))
	}
	t.Note("the on-demand automaton also hosts the dynamic rules the full automaton had to drop")
	return rows, t, nil
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
