package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro"
	"repro/internal/reduce"
	"repro/internal/server"
	programs "repro/internal/workload"
)

// machineNames are the five machine descriptions every workload serves.
var machineNames = []string{"x86", "mips", "sparc", "alpha", "jit64"}

// expect is one forest's oracle output, from the dp engine.
type expect struct {
	asm    string
	cost   int64
	instrs int
}

func (e expect) matches(o *repro.Output) bool {
	return o != nil && o.Asm == e.asm && int64(o.Cost) == e.cost && o.Instructions == e.instrs
}

func (e expect) output(name string) server.CompileOutput {
	return server.CompileOutput{Name: name, Asm: e.asm, Instructions: e.instrs, Cost: e.cost}
}

// outputsJSON is the fragment a correct CompileResponse body contains:
// its outputs array exactly as the server encodes it. Matching bytes lets
// the client check a response without decoding it, so the harness adds
// little garbage to the collector it shares with the server.
func outputsJSON(outs []server.CompileOutput) ([]byte, error) {
	b, err := json.Marshal(outs)
	if err != nil {
		return nil, err
	}
	return append(append([]byte(`"outputs":`), b...), `,"states"`...), nil
}

// forestCase is one pre-lowered corpus forest of one machine.
type forestCase struct {
	m     int
	f     *repro.Forest
	nodes int
	want  expect
	// steps is the oracle derivation in visit order; the traced run
	// replays it into an emitter to time emission on its own.
	steps []reduce.Step
}

type machineCorpus struct {
	forests []forestCase
}

// httpCase is one POST /compile body with its oracle outputs.
type httpCase struct {
	id      int
	m       int
	body    []byte
	req     server.CompileRequest
	outs    []server.CompileOutput
	want    []byte // see outputsJSON
	nodes   int
	forests int
}

// corpus is every input of every workload, built before any setup is
// timed: the MinC corpus lowered per machine, its dp outputs and
// derivations, and the request bodies the HTTP workloads send.
type corpus struct {
	machines []*machineCorpus
	minc     []httpCase // one per (machine, program)
	trees    []httpCase // one per (machine, forest), as tree text
}

// buildCorpus prepares the inputs every seed draws from. They do not
// depend on the seed, so seeds differ only in the order and mix of what
// they send, not in what can be sent.
func buildCorpus() (*corpus, error) {
	ctx := context.Background()
	c := &corpus{}
	for mi, name := range machineNames {
		ref, err := repro.LoadMachine(name)
		if err != nil {
			return nil, err
		}
		dpSel, err := ref.NewSelector(repro.KindDP, repro.Options{})
		if err != nil {
			return nil, err
		}
		rd, err := reduce.New(ref.Grammar, ref.Env, nil)
		if err != nil {
			return nil, err
		}
		// oracle compiles f with dp; the output comes from the same forest
		// the program is given, never from a re-rendered copy.
		oracle := func(f *repro.Forest) (expect, []reduce.Step, error) {
			out, err := dpSel.Compile(ctx, f)
			if err != nil {
				return expect{}, nil, err
			}
			lab, err := dpSel.Label(f)
			if err != nil {
				return expect{}, nil, err
			}
			d, err := rd.Trace(f, lab)
			if err != nil {
				return expect{}, nil, err
			}
			return expect{out.Asm, int64(out.Cost), out.Instructions}, d.Steps, nil
		}
		mc := &machineCorpus{}
		for _, p := range programs.All() {
			unit, err := ref.CompileMinC(p.Src)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, p.Name, err)
			}
			hc := httpCase{m: mi, req: server.CompileRequest{Client: "bench", MinC: p.Src}}
			for _, fn := range unit.Funcs {
				want, steps, err := oracle(fn.Forest)
				if err != nil {
					return nil, fmt.Errorf("%s/%s.%s: %w", name, p.Name, fn.Name, err)
				}
				n := fn.Forest.NumNodes()
				mc.forests = append(mc.forests, forestCase{m: mi, f: fn.Forest, nodes: n, want: want, steps: steps})
				hc.outs = append(hc.outs, want.output(fn.Name))
				hc.nodes += n
				hc.forests++
			}
			c.minc = append(c.minc, hc)
		}
		// Every forest also goes out as tree text. The oracle compiles what
		// ParseTree makes of that text, which is what the server will get.
		for fi := range mc.forests {
			text := mc.forests[fi].f.String(ref.Grammar)
			f, err := ref.ParseTree(text)
			if err != nil {
				return nil, fmt.Errorf("%s: tree text %d: %w", name, fi, err)
			}
			want, _, err := oracle(f)
			if err != nil {
				return nil, fmt.Errorf("%s: tree text %d: %w", name, fi, err)
			}
			c.trees = append(c.trees, httpCase{
				m: mi, req: server.CompileRequest{Client: "bench", Trees: text},
				outs: []server.CompileOutput{want.output("")}, nodes: f.NumNodes(), forests: 1,
			})
		}
		c.machines = append(c.machines, mc)
	}
	id := 0
	for _, set := range [][]httpCase{c.minc, c.trees} {
		for i := range set {
			body, err := json.Marshal(set[i].req)
			if err != nil {
				return nil, err
			}
			want, err := outputsJSON(set[i].outs)
			if err != nil {
				return nil, err
			}
			set[i].body, set[i].want, set[i].id = body, want, id
			id++
		}
	}
	return c, nil
}

// requestMix draws n HTTP requests: 80% MinC units, 20% tree texts,
// machine and program (or forest) uniform.
func (c *corpus) requestMix(rng *rand.Rand, n int) []*httpCase {
	seq := make([]*httpCase, n)
	for i := range seq {
		if rng.Float64() < 0.8 {
			seq[i] = &c.minc[rng.IntN(len(c.minc))]
		} else {
			seq[i] = &c.trees[rng.IntN(len(c.trees))]
		}
	}
	return seq
}

// hashSeq fingerprints a workload's drawn request sequence, so a test can
// check that one seed always draws the same requests.
func hashSeq(items ...[]int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, seq := range items {
		for _, v := range seq {
			for i := range b {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func httpIDs(seq []*httpCase) []int {
	ids := make([]int, len(seq))
	for i, hc := range seq {
		ids[i] = hc.id
	}
	return ids
}
