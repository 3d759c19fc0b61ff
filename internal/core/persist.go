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

	// Dense transitions. Cells are read plainly: every writer holds the
	// operator mutex we already hold via lockAll.
	var leaf, un, bin [][3]int64
	for op := range e.leaf {
		if id := e.leaf[op].Load(); id >= 0 {
			leaf = append(leaf, [3]int64{int64(op), int64(id), 0})
		}
		if rp := e.un[op].Load(); rp != nil {
			for k, id := range *rp {
				if id >= 0 {
					un = append(un, [3]int64{int64(op), int64(k), int64(id)})
				}
			}
		}
		if t := e.bin[op].Load(); t != nil {
			for l := int32(0); l < t.rows; l++ {
				for r := int32(0); r < t.stride; r++ {
					if id := t.cells[l*t.stride+r]; id >= 0 {
						bin = append(bin, [3]int64{int64(op), int64(l)<<32 | int64(r), int64(id)})
					}
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

	// Hash transitions (dynamic operators and ForceHash), unpacked from the
	// open-addressing tables back into the (op, l, r, sig, id) wire entries
	// the format has always used — the signature byte image equals the
	// little-endian key words truncated to 4 bytes per dynamic rule, so
	// blobs saved before the open tables load unchanged. Count first.
	nHash := 0
	for op := range e.dyn {
		if t := e.dyn[op].Load(); t != nil {
			nHash += t.used
		}
	}
	put(uint64(nHash))
	for op := range e.dyn {
		t := e.dyn[op].Load()
		if t == nil {
			continue
		}
		sigLen := 4 * len(e.g.DynRules(grammar.OpID(op)))
		kw := t.kw
		for slot := 0; slot <= int(t.mask); slot++ {
			id := t.ids[slot]
			if id < 0 {
				continue
			}
			key := t.keys[slot*kw : slot*kw+kw]
			put(uint64(op))
			put(uint64(uint32(key[0] >> 32))) // l
			put(uint64(uint32(key[0])))       // r
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
	// byID grows as states are read: the header's claim sizes nothing, so
	// a short file claiming millions of states fails at EOF cheaply.
	var byID []*automaton.State
	// One pair of vectors serves every state: interning copies them.
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
		byID = append(byID, s)
	}
	state := func(v uint64) (*automaton.State, error) {
		if v >= nStates {
			return nil, fmt.Errorf("core: transition references state %d of %d", v, nStates)
		}
		return byID[v], nil
	}

	readTriples := func(apply func(op, key, sid uint64) error) error {
		n, err := get()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			op, err := get()
			if err != nil {
				return err
			}
			key, err := get()
			if err != nil {
				return err
			}
			sid, err := get()
			if err != nil {
				return err
			}
			if op >= uint64(e.g.NumOps()) {
				return fmt.Errorf("core: transition references operator %d", op)
			}
			if err := apply(op, key, sid); err != nil {
				return err
			}
		}
		return nil
	}
	// Leaf triples store (op, stateID, 0).
	if err := readTriples(func(op, key, _ uint64) error {
		s, err := state(key)
		if err != nil {
			return err
		}
		e.leaf[op].Store(s.ID)
		e.transitions.Add(1)
		return nil
	}); err != nil {
		return err
	}
	// Unary triples store (op, kidStateID, stateID).
	if err := readTriples(func(op, key, sid uint64) error {
		if _, err := state(key); err != nil {
			return err
		}
		s, err := state(sid)
		if err != nil {
			return err
		}
		e.setUnLocked(grammar.OpID(op), int(key), s.ID)
		e.transitions.Add(1)
		return nil
	}); err != nil {
		return err
	}
	// Binary triples store (op, left<<32|right, stateID).
	if err := readTriples(func(op, key, sid uint64) error {
		if _, err := state(key >> 32); err != nil {
			return err
		}
		if _, err := state(uint64(uint32(key))); err != nil {
			return err
		}
		s, err := state(sid)
		if err != nil {
			return err
		}
		e.setBinLocked(grammar.OpID(op), int(key>>32), int(uint32(key)), s.ID)
		e.transitions.Add(1)
		return nil
	}); err != nil {
		return err
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
		s, err := state(sid)
		if err != nil {
			return err
		}
		// Repack the wire entry into the open-addressing key layout:
		// word 0 is l<<32|r, signature bytes fill the remaining words
		// little-endian (zero-padded in the last word).
		key := make([]uint64, e.keyWords(grammar.OpID(op)))
		key[0] = uint64(uint32(lv))<<32 | uint64(uint32(rv))
		for j := 0; j < int(sigLen)/4; j++ {
			c := binary.LittleEndian.Uint32(sig[4*j:])
			key[1+j/2] |= uint64(c) << (32 * uint(j%2))
		}
		e.insertDynLocked(grammar.OpID(op), key, hashKey(key), s.ID)
		e.transitions.Add(1)
	}
	return nil
}
