package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/automaton"
	"repro/internal/grammar"
)

// Save/Load persist an on-demand automaton: the natural extension of lazy
// construction to a JIT that runs more than once. A saved automaton
// restores every interned state and memoized transition, so a warmed
// compiler starts its next run with a fully hot fast path (zero misses on
// the same workload) instead of re-deriving states it has seen before.
//
// The format (ODTA1) stores transitions as state-id triples. The engine
// keys transitions by representer class, and Load classifies every state
// it reads, so one triple per class cell — naming the classes' sample
// states — restores every child pair the cell serves; Load replays each
// triple through the projection and rejects two that put different states
// in one class cell. Id-keyed files written before the class tables load
// the same way, their triples collapsing onto class cells.
//
// The format is tied to the exact grammar: a fingerprint of the
// normal-form dump is embedded and checked on load, because state vectors
// index nonterminals and rules by position.

const persistMagic = "ODTA1\n"

// Save writes the engine's automaton (states + transitions) to w. It
// holds every per-operator construct lock for the duration, so the state
// list and the transition tables are written as one consistent snapshot
// even while other goroutines keep labeling (their fast paths are
// unaffected; their misses wait).
func (e *Engine) Save(w io.Writer) error {
	e.lockAll()
	defer e.unlockAll()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	put := func(v uint64) { binary.Write(bw, binary.LittleEndian, v) }
	put(e.g.Fingerprint())
	put(uint64(e.g.NumNonterms()))

	states := e.table.States()
	put(uint64(len(states)))
	for _, s := range states {
		for nt := range s.Delta {
			put(uint64(uint32(s.Delta[nt])))
			put(uint64(uint32(s.Rule[nt])))
		}
	}

	// Transitions, one triple per class cell, naming each class by its
	// sample. Cells are read plainly: every writer holds the operator mutex
	// we already hold via lockAll; the samples are read under classMu.
	e.classMu.Lock()
	defer e.classMu.Unlock()
	sample := func(op, p int, c int32) int64 {
		return int64(e.spaces[e.ops[op].of[p]].Sample(c).ID)
	}
	var leaf, un, bin [][3]int64
	for op := range e.ops {
		if id := e.ops[op].leaf.Load(); id >= 0 {
			leaf = append(leaf, [3]int64{int64(op), int64(id), 0})
		}
		t := e.ops[op].grid.Load()
		if t == nil {
			continue
		}
		for c0 := int32(0); c0 < t.rows; c0++ {
			for c1 := int32(0); c1 < t.cols; c1++ {
				id := t.cells[c0*t.cols+c1]
				switch {
				case id < 0:
				case e.g.Ops[op].Arity == 1:
					un = append(un, [3]int64{int64(op), sample(op, 0, c0), int64(id)})
				default:
					bin = append(bin, [3]int64{int64(op), sample(op, 0, c0)<<32 | sample(op, 1, c1), int64(id)})
				}
			}
		}
	}
	writeTriples := func(ts [][3]int64) {
		put(uint64(len(ts)))
		for _, t := range ts {
			put(uint64(t[0]))
			put(uint64(t[1]))
			put(uint64(t[2]))
		}
	}
	writeTriples(leaf)
	writeTriples(un)
	writeTriples(bin)

	// Hash transitions (dynamic operators, ForceHash, classes past the grid
	// bound), unpacked from the open-addressing tables into the (op, l, r,
	// sig, id) wire entries the format has always used, the key's classes
	// named by their samples — the signature byte image equals the
	// little-endian key words truncated to 4 bytes per dynamic rule. Count
	// first.
	nHash := 0
	for op := range e.ops {
		if t := e.ops[op].dyn.Load(); t != nil {
			nHash += t.used
		}
	}
	put(uint64(nHash))
	for op := range e.ops {
		t := e.ops[op].dyn.Load()
		if t == nil {
			continue
		}
		arity := e.g.Ops[op].Arity
		sigLen := 4 * len(e.g.DynRules(grammar.OpID(op)))
		kw := t.kw
		for slot := 0; slot <= int(t.mask); slot++ {
			id := t.ids[slot]
			if id < 0 {
				continue
			}
			key := t.keys[slot*kw : slot*kw+kw]
			var l, r int64
			if arity > 0 {
				l = sample(op, 0, int32(key[0]>>32))
			}
			if arity > 1 {
				r = sample(op, 1, int32(uint32(key[0])))
			}
			put(uint64(op))
			put(uint64(l))
			put(uint64(r))
			put(uint64(sigLen))
			for j := 0; j < sigLen/4; j++ {
				c := uint32(key[1+j/2] >> (32 * uint(j%2)))
				var tmp [4]byte
				binary.LittleEndian.PutUint32(tmp[:], c)
				bw.Write(tmp[:])
			}
			put(uint64(id))
		}
	}
	return bw.Flush()
}

// Load restores a previously saved automaton into a fresh engine for the
// same grammar. Loading into a non-empty engine — a seeded one included —
// is rejected. Every state must pass automaton.ValidateState, and every
// transition must reference states the file defines.
func (e *Engine) Load(r io.Reader) error {
	if e.table.Len() != 0 {
		return fmt.Errorf("core: Load requires a fresh engine")
	}
	// Load must be serialized against labeling (fresh engine, single
	// goroutine); the locks keep the *Locked helpers' invariant honest.
	e.lockAll()
	defer e.unlockAll()
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("core: reading automaton header: %w", err)
	}
	if string(magic) != persistMagic {
		return fmt.Errorf("core: not a saved automaton (bad magic %q)", magic)
	}
	get := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	fp, err := get()
	if err != nil {
		return err
	}
	if fp != e.g.Fingerprint() {
		return fmt.Errorf("core: saved automaton was built for a different grammar (fingerprint %x != %x)",
			fp, e.g.Fingerprint())
	}
	numNT, err := get()
	if err != nil {
		return err
	}
	if int(numNT) != e.g.NumNonterms() {
		return fmt.Errorf("core: nonterminal count mismatch")
	}

	nStates, err := get()
	if err != nil {
		return err
	}
	if nStates > 1<<24 {
		return fmt.Errorf("core: implausible state count %d", nStates)
	}
	// The header's claim sizes nothing: a short file claiming millions of
	// states fails at EOF cheaply. One pair of vectors serves every state:
	// interning copies them.
	delta := make([]grammar.Cost, numNT)
	rule := make([]int32, numNT)
	for i := uint64(0); i < nStates; i++ {
		for nt := 0; nt < int(numNT); nt++ {
			d, err := get()
			if err != nil {
				return err
			}
			rv, err := get()
			if err != nil {
				return err
			}
			delta[nt] = grammar.Cost(int32(uint32(d)))
			rule[nt] = int32(uint32(rv))
		}
		// The per-state rules every table-set state passes: a state that
		// breaks them would fail reduction or loop the emitter at serve
		// time instead of failing here.
		if err := automaton.ValidateState(e.g, delta, rule); err != nil {
			return fmt.Errorf("core: saved state %d: %w", i, err)
		}
		s, _ := e.table.Intern(delta, rule, e.m)
		if s.ID != int32(i) {
			return fmt.Errorf("core: duplicate state %d in saved automaton", i)
		}
	}
	cls := e.classifyTo(int32(nStates))
	// classes resolves a transition's child states (ids l and r, as far as
	// op's arity reaches) to their classes.
	classes := func(op grammar.OpID, l, r uint64) ([2]int32, error) {
		var c [2]int32
		kids := [2]uint64{l, r}
		for p, v := range kids[:e.g.Ops[op].Arity] {
			if v >= nStates {
				return c, fmt.Errorf("core: transition references state %d of %d", v, nStates)
			}
			c[p] = e.classOf(cls, e.ops[op].of[p], int32(v))
		}
		return c, nil
	}
	target := func(sid uint64) (int32, error) {
		if sid >= nStates {
			return 0, fmt.Errorf("core: transition references state %d of %d", sid, nStates)
		}
		return int32(sid), nil
	}

	// Leaf triples store (op, stateID, 0), unary ones (op, kidStateID,
	// stateID) and binary ones (op, left<<32|right, stateID), all of
	// fixed operators of that arity.
	for arity := 0; arity <= 2; arity++ {
		n, err := get()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			var t [3]uint64
			for j := range t {
				if t[j], err = get(); err != nil {
					return err
				}
			}
			if t[0] >= uint64(e.g.NumOps()) {
				return fmt.Errorf("core: transition references operator %d", t[0])
			}
			op := grammar.OpID(t[0])
			if e.g.Ops[op].Arity != arity || e.g.HasDynRules(op) {
				return fmt.Errorf("core: arity-%d transition names operator %s", arity, e.g.OpName(op))
			}
			var c [2]int32
			var sid uint64
			switch arity {
			case 0:
				sid = t[1]
			case 1:
				c, err = classes(op, t[1], 0)
				sid = t[2]
			default:
				c, err = classes(op, t[1]>>32, uint64(uint32(t[1])))
				sid = t[2]
			}
			if err != nil {
				return err
			}
			id, err := target(sid)
			if err != nil {
				return err
			}
			if err := e.restoreLocked(op, c, nil, id); err != nil {
				return err
			}
		}
	}
	// Hash transitions.
	nHash, err := get()
	if err != nil {
		return err
	}
	if nHash > 1<<26 {
		return fmt.Errorf("core: implausible hash-transition count %d", nHash)
	}
	for i := uint64(0); i < nHash; i++ {
		op, err := get()
		if err != nil {
			return err
		}
		lv, err := get()
		if err != nil {
			return err
		}
		rv, err := get()
		if err != nil {
			return err
		}
		sigLen, err := get()
		if err != nil {
			return err
		}
		if op >= uint64(e.g.NumOps()) {
			return fmt.Errorf("core: hash transition references operator %d", op)
		}
		if want := 4 * len(e.g.DynRules(grammar.OpID(op))); sigLen != uint64(want) {
			return fmt.Errorf("core: hash transition of operator %d carries a %d-byte signature, want %d", op, sigLen, want)
		}
		sig := make([]byte, sigLen)
		if _, err := io.ReadFull(br, sig); err != nil {
			return err
		}
		sid, err := get()
		if err != nil {
			return err
		}
		id, err := target(sid)
		if err != nil {
			return err
		}
		c, err := classes(grammar.OpID(op), lv, rv)
		if err != nil {
			return err
		}
		// Repack the signature into the open-addressing key layout: its
		// bytes fill the words after the class word little-endian
		// (zero-padded in the last word).
		words := make([]uint64, e.keyWords(grammar.OpID(op))-1)
		for j := 0; j < int(sigLen)/4; j++ {
			c := binary.LittleEndian.Uint32(sig[4*j:])
			words[j/2] |= uint64(c) << (32 * uint(j%2))
		}
		if err := e.restoreLocked(grammar.OpID(op), c, words, id); err != nil {
			return err
		}
	}
	return nil
}

// restoreLocked memoizes one loaded transition of op — child classes c,
// packed signature words sig — where labeling looks it up: the leaf cell,
// the class grid, or the open table. A transition already there with the
// same target is a duplicate (another child pair of the same class pair,
// as id-keyed files carry); one with a different target is an error.
// Caller holds e.mus[op].
func (e *Engine) restoreLocked(op grammar.OpID, c [2]int32, sig []uint64, id int32) error {
	old := int32(-1)
	switch {
	case !e.ops[op].hashed && e.g.Ops[op].Arity == 0:
		if old = e.ops[op].leaf.Load(); old < 0 {
			e.ops[op].leaf.Store(id)
		}
	case !e.ops[op].hashed && c[0] < e.maxClasses && c[1] < e.maxClasses:
		if old = e.cell(op, c); old < 0 {
			e.setCellLocked(op, c, id)
		}
	default:
		key := append([]uint64{classKey(c)}, sig...)
		h := hashKey(key)
		if t := e.ops[op].dyn.Load(); t != nil {
			if v, ok := t.get(key, h); ok {
				old = v
			}
		}
		if old < 0 {
			e.insertDynLocked(op, key, h, id)
		}
	}
	switch {
	case old < 0:
		e.transitions.Add(1)
	case old != id:
		return fmt.Errorf("core: saved transitions of operator %s disagree within one class (states %d and %d)",
			e.g.OpName(op), old, id)
	}
	return nil
}
