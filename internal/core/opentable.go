package core

import "sync/atomic"

// openTab is the open-addressing transition table of one dynamic-rule (or
// ForceHash, or past-the-grid-bound) operator — the replacement for the
// per-op sync.Map the engine used through PR 5. Transition keys are (left
// class, right class, dynamic-cost signature) packed into a fixed number
// of uint64 words per operator, so a warm probe is a hash over a handful of
// words, a linear scan of flat arrays, and word-compares — no interface
// conversions, no boxed int32 values, no per-entry heap objects.
//
// Layout: capacity is a power of two. keys holds capacity*kw words
// (kw = words per key, fixed per operator: one class word plus the
// operator's packed signature words); ids holds capacity state-id cells
// with -1 marking an empty slot. Collisions probe linearly.
//
// Concurrency follows the engine's grid discipline: the warm hit
// path is lock-free, all writes happen under the operator's slow-path
// mutex. A slot becomes readable only through the atomic id publish — the
// writer fills the key words first and stores the id last, and a reader
// touches key words only after an atomic id load observed a valid id, so
// the words are safely visible. Growth allocates a new table, rehashes
// every occupied slot, and publishes the new table through the operator's
// atomic pointer only when fully populated; readers still probing the old
// table miss at worst and retry under the mutex.
//
// The table is never more than 3/4 full (grow keeps the load factor
// bounded), so every probe terminates at an empty slot.
type openTab struct {
	mask uint64 // capacity - 1 (capacity is a power of two)
	kw   int    // uint64 words per key
	keys []uint64
	ids  []int32
	used int // occupied slots; mutated only under the op's slow-path mutex
}

// openTabMinCap is the initial capacity of a freshly allocated table.
const openTabMinCap = 8

func newOpenTab(kw, capacity int) *openTab {
	t := &openTab{
		mask: uint64(capacity - 1),
		kw:   kw,
		keys: make([]uint64, capacity*kw),
		ids:  make([]int32, capacity),
	}
	for i := range t.ids {
		t.ids[i] = -1
	}
	return t
}

// hashKey mixes the key words into a probe hash. The multiply-xorshift
// round per word (the murmur3 finalizer constant) spreads low-entropy keys
// — small class numbers, mostly-zero signatures — across the whole word, so
// the low bits the mask keeps are well distributed.
func hashKey(ws []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range ws {
		h ^= w
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// get probes for key and returns its state id. Lock-free: see the type
// documentation for the publication contract.
func (t *openTab) get(key []uint64, h uint64) (int32, bool) {
	kw := t.kw
	slot := h & t.mask
	for {
		id := atomic.LoadInt32(&t.ids[slot])
		if id < 0 {
			return -1, false
		}
		if wordsEqual(t.keys[int(slot)*kw:int(slot)*kw+kw], key) {
			return id, true
		}
		slot = (slot + 1) & t.mask
	}
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insertLocked writes (key -> id) into the table. The caller holds the
// operator's slow-path mutex and has verified the key is absent and the
// table has room (used < 3/4 capacity after growIfNeeded).
func (t *openTab) insertLocked(key []uint64, h uint64, id int32) {
	kw := t.kw
	slot := h & t.mask
	for atomic.LoadInt32(&t.ids[slot]) >= 0 {
		slot = (slot + 1) & t.mask
	}
	copy(t.keys[int(slot)*kw:], key)
	// Publish last: the id store is what makes the key words readable.
	atomic.StoreInt32(&t.ids[slot], id)
	t.used++
}

// grown returns a table of twice the capacity holding every entry of t.
// Caller holds the operator's mutex; the result must be published through
// the operator's atomic pointer only after this returns (fully populated
// before the pointer is released).
func (t *openTab) grown() *openTab {
	nt := newOpenTab(t.kw, 2*(int(t.mask)+1))
	kw := t.kw
	for slot := 0; slot <= int(t.mask); slot++ {
		if t.ids[slot] < 0 {
			continue
		}
		key := t.keys[slot*kw : slot*kw+kw]
		nt.insertLocked(key, hashKey(key), t.ids[slot])
	}
	return nt
}

// full reports whether inserting one more entry would push the load factor
// past 3/4.
func (t *openTab) full() bool {
	return 4*(t.used+1) > 3*(int(t.mask)+1)
}

// entries counts occupied slots (diagnostics and persistence; callers
// either hold the operator's mutex or accept a racy snapshot, which the
// monotone insert-only structure keeps consistent per slot).
func (t *openTab) entries() int {
	n := 0
	for i := range t.ids {
		if atomic.LoadInt32(&t.ids[i]) >= 0 {
			n++
		}
	}
	return n
}

// memoryBytes reports the table's footprint.
func (t *openTab) memoryBytes() int {
	return 8*len(t.keys) + 4*len(t.ids) + 48
}
