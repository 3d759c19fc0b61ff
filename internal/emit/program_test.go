package emit

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dp"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
	"repro/internal/reduce"
	"repro/internal/workload"
)

// derivation is one forest with the visits its reducer makes, in order.
// Templates do not change labeling or covering, so one derivation serves
// every template a test sets.
type derivation struct {
	f     *ir.Forest
	steps []reduce.Step
}

// replay feeds d's visits to visit.
func (d *derivation) replay(g *grammar.Grammar, visit reduce.Visitor) {
	for _, st := range d.steps {
		visit(d.f.Nodes[st.NodeIndex], st.NT, &g.Rules[st.RuleIndex])
	}
}

// derive labels fs with dp and keeps the derivable forests' visits.
func derive(t testing.TB, d md.Desc, fs []*ir.Forest) []derivation {
	t.Helper()
	l, err := dp.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reduce.New(d.Grammar, d.Env, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ds []derivation
	for _, f := range fs {
		if dv, err := rd.Trace(f, l.Label(f)); err == nil {
			ds = append(ds, derivation{f, dv.Steps})
		}
	}
	return ds
}

// corpusForests returns the MinC corpus lowered for g.
func corpusForests(g *grammar.Grammar) []*ir.Forest {
	var fs []*ir.Forest
	for _, c := range workload.MustCompileAll(g) {
		fs = append(fs, c.Forests()...)
	}
	return fs
}

// randomForests returns derivable-shaped random forests over g: statement
// roots over expression subtrees, every third one a DAG.
func randomForests(g *grammar.Grammar, n int) []*ir.Forest {
	var roots, inner, leaf []grammar.OpID
	for op := 0; op < g.NumOps(); op++ {
		for _, ri := range g.BaseRules(grammar.OpID(op)) {
			switch {
			case g.Rules[ri].LHS == g.Start:
				roots = append(roots, grammar.OpID(op))
			case g.Arity(grammar.OpID(op)) == 0:
				leaf = append(leaf, grammar.OpID(op))
			default:
				inner = append(inner, grammar.OpID(op))
			}
		}
	}
	fs := make([]*ir.Forest, n)
	for seed := range fs {
		fs[seed] = ir.RandomForest(g, ir.RandomConfig{
			Seed: int64(seed), Trees: 2 + seed%4, MaxDepth: 3 + seed%4,
			Share: seed%3 == 0, MaxLeafVal: 1 << uint(2+seed%10),
			RootOps: roots, InnerOps: inner, LeafOps: leaf,
		})
	}
	return fs
}

// templateCase is one grammar whose rule templates a test rewrites.
type templateCase struct {
	d  md.Desc
	ds []derivation
}

var (
	templateOnce  sync.Once
	templateCases []*templateCase
)

// templateMachines loads demo and x86 once, with their derivations:
// random forests on both, plus the corpus on x86.
func templateMachines(t testing.TB) []*templateCase {
	templateOnce.Do(func() {
		for _, name := range []string{"demo", "x86"} {
			d := md.MustLoad(name)
			fs := randomForests(d.Grammar, 60)
			if name == "x86" {
				fs = append(fs, corpusForests(d.Grammar)...)
			}
			templateCases = append(templateCases, &templateCase{d: d, ds: derive(t, d, fs)})
		}
	})
	return templateCases
}

// checkAgainstReference emits every derivation of c with a freshly
// compiled program and with the reference interpreter and reports the
// first difference.
func checkAgainstReference(t *testing.T, c *templateCase) {
	t.Helper()
	g := c.d.Grammar
	em := Compile(g).NewEmitter()
	for i := range c.ds {
		d := &c.ds[i]
		em.Reset()
		d.replay(g, em.Visit)
		ref := newRefEmitter()
		d.replay(g, ref.visit)
		if got, want := em.Asm(), ref.asm.String(); got != want || em.Instructions() != ref.instrs {
			t.Fatalf("%s forest %d: program emitted %d instructions, reference %d\n--- program ---\n%s--- reference ---\n%s",
				g.Name, i, em.Instructions(), ref.instrs, got, want)
		}
	}
}

// TestProgramsMatchReference: on every shipped machine's own templates,
// the compiled programs emit exactly what the reference interpreter does.
func TestProgramsMatchReference(t *testing.T) {
	for _, name := range md.Names() {
		d := md.MustLoad(name)
		fs := randomForests(d.Grammar, 40)
		if name != "demo" {
			fs = append(fs, corpusForests(d.Grammar)...)
		}
		checkAgainstReference(t, &templateCase{d: d, ds: derive(t, d, fs)})
	}
}

// FuzzTemplate sets arbitrary templates on two rules of demo or x86 and
// requires the compiled program to emit exactly the reference
// interpreter's assembly and instruction count on random forests (and, on
// x86, the corpus). The seeds cover %%, a trailing %, unknown escapes,
// dotted paths through helpers and through nonterminals with several
// rules, out-of-range kids, and templates on chain and helper rules.
func FuzzTemplate(f *testing.F) {
	cs := templateMachines(f)
	for ci, c := range cs {
		x86 := ci == 1
		g := c.d.Grammar
		// chain, helper and dotted are the first chain rule, helper rule
		// and rule with a dotted template; walked is the first rule whose
		// kid 0 chain rules derive, so a dotted step from it walks them.
		chain, helper, dotted, walked := -1, -1, -1, -1
		for i := range g.Rules {
			r := &g.Rules[i]
			switch {
			case r.IsChain && chain < 0:
				chain = i
			case g.Nonterms[r.LHS].Helper && helper < 0:
				helper = i
			case strings.Contains(r.Template, "%1.1") && dotted < 0:
				dotted = i
			}
			if r.IsChain && walked < 0 {
				for j := range g.Rules {
					if k := &g.Rules[j]; !k.IsChain && len(k.Kids) > 0 && k.Kids[0] == r.LHS {
						walked = j
						break
					}
				}
			}
		}
		for _, s := range []struct {
			r1 int
			t1 string
			r2 int
			t2 string
		}{
			{dotted, "x %1.1 %0 %%%z %d %", chain, "=[%0.1]"},
			{dotted, "%1.0.0 %1.0.1 %1.9 %1. %0.0 %2 %s", helper, "=h%c"},
			{chain, "cvt %0, %d", helper, "h %1 %0 %d"},
			{helper, "=%0.1", dotted, "=%1.1%1.0%%"},
			{dotted, "%", chain, "%1.1.1.1"},
			{walked, "w %0.0 %0.1 %0.1.1 %0.0.0", dotted, "=%1.0.0"},
		} {
			f.Add(x86, uint16(s.r1), s.t1, uint16(s.r2), s.t2)
		}
	}
	f.Fuzz(func(t *testing.T, x86 bool, r1 uint16, t1 string, r2 uint16, t2 string) {
		c := cs[0]
		if x86 {
			c = cs[1]
		}
		rules := c.d.Grammar.Rules
		a, b := &rules[int(r1)%len(rules)], &rules[int(r2)%len(rules)]
		ta, tb := a.Template, b.Template
		defer func() { a.Template, b.Template = ta, tb }()
		a.Template, b.Template = t1, t2
		checkAgainstReference(t, c)
	})
}

// TestShippedProgramsResolveStatically: on every shipped machine, each
// dotted step crosses a helper nonterminal with one base rule and each
// kid reference is in range, so no program reads the derivation at run
// time or renders "?", and helper leaves record no slot.
func TestShippedProgramsResolveStatically(t *testing.T) {
	for _, name := range md.Names() {
		g := md.MustLoad(name).Grammar
		fixed, err := g.StripDynamic()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*grammar.Grammar{g, fixed} {
			p := Compile(g)
			if p.walks {
				t.Errorf("%s: program walks derivations at run time", g.Name)
			}
			skips := 0
			for i, rp := range p.rules {
				for _, o := range p.ops[rp.lo:rp.hi] {
					if o.kind == opWalk || o.kind == opBad {
						t.Errorf("%s: rule %s compiles to op kind %d", g.Name, g.RuleName(i), o.kind)
					}
				}
				if rp.kind == ruleSkip {
					skips++
				}
			}
			t.Logf("%s: %d rules, %d ops, %d helper leaves record no slot", g.Name, len(p.rules), len(p.ops), skips)
		}
	}
}

// TestCompileAllocs caps program compilation at three allocations per
// grammar: the Program and its two slabs.
func TestCompileAllocs(t *testing.T) {
	for _, name := range md.Names() {
		g := md.MustLoad(name).Grammar
		allocs := testing.AllocsPerRun(20, func() { Compile(g) })
		if allocs > 3 {
			t.Errorf("%s: Compile allocated %.0f times, want at most 3", name, allocs)
		}
	}
}

// TestSharedProgramConcurrent: goroutines with an emitter each, sharing
// one program and one Interner, emit the corpus exactly as one emitter
// does sequentially.
func TestSharedProgramConcurrent(t *testing.T) {
	d := md.MustLoad("x86")
	g := d.Grammar
	ds := derive(t, d, corpusForests(g))
	p := Compile(g)
	want := make([]string, len(ds))
	seq := p.NewEmitter()
	for i := range ds {
		seq.Reset()
		ds[i].replay(g, seq.Visit)
		want[i] = seq.Asm()
	}
	in := NewInterner(0)
	const workers, passes = 4, 3
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			em := p.NewEmitter()
			em.SetInterner(in)
			for pass := 0; pass < passes; pass++ {
				for j := range ds {
					i := (j*(w+1) + pass) % len(ds) // a different order per worker
					em.Reset()
					ds[i].replay(g, em.Visitor())
					if got := em.Asm(); got != want[i] {
						errs <- fmt.Errorf("worker %d forest %d: got\n%s\nwant\n%s", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
