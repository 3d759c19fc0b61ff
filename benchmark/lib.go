package main

import (
	"context"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/emit"
	"repro/internal/reduce"
)

// The library workloads call Selector.Compile in-process: the JIT loop
// (jit-solo, jit-mixed) and the cold sessions (cold-start).

// pair is one (machine, forest) draw.
type pair struct{ m, f int }

// libMachine is one machine's selector plus what the traced path needs to
// call the layers one at a time: a reducer, a reused emitter, and the
// engine's labeling recycler.
type libMachine struct {
	m   *repro.Machine
	sel *repro.Selector
	rd  *reduce.Reducer
	em  *emit.Emitter
	rc  reduce.LabelingRecycler
}

func newLibMachine(name string, opt repro.Options) (*libMachine, error) {
	m, err := repro.LoadMachine(name)
	if err != nil {
		return nil, err
	}
	return newLibSelector(m, opt)
}

func newLibSelector(m *repro.Machine, opt repro.Options) (*libMachine, error) {
	sel, err := m.NewSelector(repro.KindOnDemand, opt)
	if err != nil {
		return nil, err
	}
	rd, err := reduce.New(m.Grammar, m.Env, nil)
	if err != nil {
		return nil, err
	}
	em := emit.New(m.Grammar)
	em.SetInterner(emit.NewInterner(0))
	rc, _ := sel.Labeler().(reduce.LabelingRecycler)
	return &libMachine{m: m, sel: sel, rd: rd, em: em, rc: rc}, nil
}

// replay feeds the oracle derivation of fc into em, in visit order.
func replay(em *emit.Emitter, m *repro.Machine, fc *forestCase) {
	nodes := fc.f.Nodes
	for _, st := range fc.steps {
		em.Visit(nodes[st.NodeIndex], st.NT, &m.Grammar.Rules[st.RuleIndex])
	}
}

// compileTraced is one JIT request traced: Selector.Compile split into
// its layer calls under a request root.
func (lm *libMachine) compileTraced(tr *tracer, req int32, fc *forestCase) bool {
	root := tr.begin(spRequest, -1, req, fc.m)
	ok := lm.layers(tr, root, req, fc, spLabel)
	tr.end(root, fc.nodes)
	return ok
}

// freshTraced replays fc's derivation into a new emitter, the cost a
// Compile pays when its selector's emitter pool is empty. It runs apart
// from the traced requests: its garbage would slow every layer around it.
func (lm *libMachine) freshTraced(tr *tracer, fc *forestCase) {
	s := tr.begin(spFreshVisit, -1, tr.newReq(), fc.m)
	replay(emit.New(lm.m.Grammar), lm.m, fc)
	tr.end(s, fc.nodes)
}

// layers calls the layers of one compile, each in a span under root:
// label (named label, so cold sessions tell theirs apart), cover with no
// visitor, the oracle derivation replayed into the reused emitter, and
// Asm. It reports whether the cost and assembly match the oracle.
func (lm *libMachine) layers(tr *tracer, root, req int32, fc *forestCase, label spanName) bool {
	s := tr.begin(label, root, req, fc.m)
	lab, err := lm.sel.Label(fc.f)
	tr.end(s, fc.nodes)
	if err != nil {
		return false
	}
	s = tr.begin(spCover, root, req, fc.m)
	cost, err := lm.rd.Cover(fc.f, lab, nil)
	tr.end(s, fc.nodes)
	if lm.rc != nil {
		lm.rc.ReleaseLabeling(lab)
	}
	s = tr.begin(spEmitVisit, root, req, fc.m)
	lm.em.Reset()
	replay(lm.em, lm.m, fc)
	tr.end(s, fc.nodes)
	s = tr.begin(spEmitAsm, root, req, fc.m)
	asm := lm.em.Asm()
	tr.end(s, 1)
	return err == nil && int64(cost) == fc.want.cost && asm == fc.want.asm &&
		lm.em.Instructions() == fc.want.instrs
}

// jitInst is a warm selector per machine serving the JIT loop.
type jitInst struct {
	c    *corpus
	libs []*libMachine
	// solo: rounds of soloRound, each split into one block per machine in
	// the round's seeded order, each block continuing that machine's
	// forests in perms[m] order. mixed: seq of draws.
	mixed  bool
	rounds [][]int
	perms  [][]int
	seq    []pair
}

// soloRound is the length of one jit-solo round. Rounds this short spread
// every machine evenly over the timed window, so a slow spell of the host
// weighs on all five alike rather than on the one whose block it hits.
const soloRound = 500 * time.Millisecond

// soloOrders is how many seeded machine orders the rounds cycle through.
const soloOrders = 16

// warmPasses is how many times setup compiles the whole corpus on each
// selector before timing: enough to materialize every state the corpus
// reaches and to fill the emitter and labeling pools.
const warmPasses = 3

func planJIT(mixed bool) func(e *env) (func() (instance, error), string, error) {
	return func(e *env) (func() (instance, error), string, error) {
		rng := rand.New(rand.NewPCG(e.seed, 2))
		base := jitInst{c: e.c, mixed: mixed}
		var ids []int
		if mixed {
			base.seq = make([]pair, 1<<12)
			for i := range base.seq {
				m := rng.IntN(len(e.c.machines))
				base.seq[i] = pair{m, rng.IntN(len(e.c.machines[m].forests))}
				ids = append(ids, m, base.seq[i].f)
			}
		} else {
			for _, mc := range e.c.machines {
				p := rng.Perm(len(mc.forests))
				base.perms = append(base.perms, p)
				ids = append(ids, p...)
			}
			for i := 0; i < soloOrders; i++ {
				o := rng.Perm(len(e.c.machines))
				base.rounds = append(base.rounds, o)
				ids = append(ids, o...)
			}
		}
		setup := func() (instance, error) {
			j := base
			for _, name := range machineNames {
				lm, err := newLibMachine(name, repro.Options{})
				if err != nil {
					return nil, err
				}
				j.libs = append(j.libs, lm)
			}
			ctx := context.Background()
			for pass := 0; pass < warmPasses; pass++ {
				for mi, mc := range e.c.machines {
					for fi := range mc.forests {
						if _, err := j.libs[mi].sel.Compile(ctx, mc.forests[fi].f); err != nil {
							return nil, err
						}
					}
				}
			}
			return &j, nil
		}
		return setup, hashSeq(ids), nil
	}
}

func (j *jitInst) close() {}

// traced runs one traced request and records its latency.
func (j *jitInst) traced(tr *tracer, fc *forestCase, lat *reservoir) bool {
	t0 := time.Now()
	ok := j.libs[fc.m].compileTraced(tr, tr.newReq(), fc)
	lat.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	return ok
}

// run drives the closed loop for d: untraced it calls Selector.Compile and
// times each forest; traced it runs each forest both ways (see one) until
// d passes or the phase's span slots run out.
func (j *jitInst) run(d time.Duration, tr *tracer) *loopResult {
	lat := newReservoir(latencySamples, 7)
	res := &loopResult{lat: []*reservoir{lat}, win: startWindow()}
	ctx := context.Background()
	one := func(fc *forestCase) {
		lm := j.libs[fc.m]
		if tr == nil {
			t0 := time.Now()
			out, err := lm.sel.Compile(ctx, fc.f)
			lat.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
			res.count(fc.nodes, 1, err == nil && fc.want.matches(out))
			return
		}
		// Traced: the request split into layer spans, and beside it the
		// same forest through Compile, alternating which goes first, so
		// the reconciliation compares the two under the same conditions.
		tracedFirst := res.attempted%2 == 1
		var ok bool
		if tracedFirst {
			ok = j.traced(tr, fc, lat)
		}
		t0 := time.Now()
		out, err := lm.sel.Compile(ctx, fc.f)
		res.machNs[fc.m] += float64(time.Since(t0).Nanoseconds())
		res.machNodes[fc.m] += float64(fc.nodes)
		if !tracedFirst {
			ok = j.traced(tr, fc, lat)
		}
		res.count(fc.nodes, 1, ok && err == nil && fc.want.matches(out))
	}
	start := res.win.start
	deadline := start.Add(d)
	if j.mixed {
		for i := 0; ; i = (i + 1) % len(j.seq) {
			p := j.seq[i]
			one(&j.c.machines[p.m].forests[p.f])
			if !time.Now().Before(deadline) || (tr != nil && tr.full()) {
				break
			}
		}
	} else {
		next := make([]int, len(j.perms))
		n := len(j.c.machines)
		block := soloRound / time.Duration(n)
		for b := 0; ; b++ {
			mi := j.rounds[b/n%len(j.rounds)][b%n]
			end := start.Add(block * time.Duration(b+1))
			if end.After(deadline) {
				end = deadline
			}
			fs := j.c.machines[mi].forests
			for {
				one(&fs[j.perms[mi][next[mi]]])
				next[mi] = (next[mi] + 1) % len(fs)
				if !time.Now().Before(end) || (tr != nil && tr.full()) {
					break
				}
			}
			if !time.Now().Before(deadline) || (tr != nil && tr.full()) {
				break
			}
		}
	}
	res.win.finish()
	return res
}

// coldInst runs cold sessions: every machine loaded and given a fresh
// selector, then the whole corpus compiled once in a seeded order.
type coldInst struct {
	c     *corpus
	perms [][]pair
	next  int
}

// coldOrders is how many seeded corpus orders the sessions cycle through.
const coldOrders = 16

func planCold(e *env) (func() (instance, error), string, error) {
	rng := rand.New(rand.NewPCG(e.seed, 3))
	var all []pair
	for mi, mc := range e.c.machines {
		for fi := range mc.forests {
			all = append(all, pair{mi, fi})
		}
	}
	var perms [][]pair
	var ids []int
	for i := 0; i < coldOrders; i++ {
		p := make([]pair, len(all))
		for k, x := range rng.Perm(len(all)) {
			p[k] = all[x]
			ids = append(ids, all[x].m, all[x].f)
		}
		perms = append(perms, p)
	}
	setup := func() (instance, error) {
		ci := &coldInst{c: e.c, perms: perms}
		// The warm-up: one untimed session.
		if ok, _ := ci.session(nil, perms[0], nil); !ok {
			return nil, errOracle
		}
		return ci, nil
	}
	return setup, hashSeq(ids), nil
}

func (ci *coldInst) close() {}

// session runs one cold session and reports whether every output matched
// the oracle. Traced, each layer call is a span under one session root.
// counters, when non-nil, receives every machine's engine events.
func (ci *coldInst) session(tr *tracer, order []pair, counters *repro.Counters) (bool, int) {
	ctx := context.Background()
	req := tr.newReq()
	root := tr.begin(spRequest, -1, req, -1)
	libs := make([]*libMachine, len(machineNames))
	ok := true
	for mi, name := range machineNames {
		s := tr.begin(spLoadMachine, root, req, mi)
		m, err := repro.LoadMachine(name)
		tr.end(s, 1)
		s = tr.begin(spNewSelector, root, req, mi)
		if err == nil {
			libs[mi], err = newLibSelector(m, repro.Options{Metrics: counters})
		}
		tr.end(s, 1)
		if err != nil {
			return false, 0
		}
	}
	nodes := 0
	for _, p := range order {
		fc := &ci.c.machines[p.m].forests[p.f]
		if tr == nil {
			out, err := libs[p.m].sel.Compile(ctx, fc.f)
			ok = ok && err == nil && fc.want.matches(out)
		} else {
			ok = libs[p.m].layers(tr, root, req, fc, spColdLabel) && ok
		}
		nodes += fc.nodes
	}
	tr.end(root, nodes)
	return ok, nodes
}

func (ci *coldInst) run(d time.Duration, tr *tracer) *loopResult {
	lat := newReservoir(latencySamples, 7)
	res := &loopResult{lat: []*reservoir{lat}, win: startWindow()}
	deadline := res.win.start.Add(d)
	for {
		order := ci.perms[ci.next%len(ci.perms)]
		ci.next++
		t0 := time.Now()
		ok, nodes := ci.session(tr, order, nil)
		t1 := time.Now()
		lat.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		res.count(nodes, len(order), ok)
		if !t1.Before(deadline) || (tr != nil && tr.full()) {
			break
		}
	}
	res.win.finish()
	return res
}
