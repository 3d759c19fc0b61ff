// Package cluster is the distributed serving tier: a consistent-hash
// router fronting N iselserver replicas, each of which serves the
// machines the ring assigns it warm from its own tables.
//
// The paper's amortization argument is per process: every state an
// on-demand automaton constructs makes the next unit cheaper, so tables
// pay off inside one long-lived engine. The cluster keeps that
// economics per machine: the ring sends each machine's traffic to the
// same few owners, so their engines stay warm. An owner gets its
// starting tables locally, from an iselgen `.isel` blob in its preload
// directory or from the fixed-operator closure computed at boot, which
// for the built-in grammars takes under a millisecond. Replicas never
// ship tables to each other.
//
// The pieces:
//
//   - Ring (this file): a consistent-hash ring mapping machine names onto
//     replicas, with a configurable replication factor for hot machines.
//     Router and replicas build the ring from the same static peer list,
//     so both sides agree on ownership without any coordination service.
//   - Membership (health.go): static peer list plus active health probing
//     and passive failure marking, shared by router and replicas.
//   - Recipe (recipe.go): how one machine is served, resolved from its
//     `.isel` blob when there is one; shared with standalone iselserver.
//   - Replica (replica.go): assembles registry + server for one fleet
//     member; at boot every owned machine is made warm before the first
//     client request can arrive.
//   - Router (router.go): proxies /compile to the machine's owners with
//     retry-on-next-replica failover, and aggregates /stats and /readyz
//     across the fleet.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member: enough that the
// key space splits evenly across a handful of replicas, small enough
// that ring construction stays trivially cheap.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over a static member set. It is
// immutable after construction and safe for concurrent use; health is
// layered on top (Membership), not baked in, so every participant
// computes identical ownership regardless of what it currently thinks of
// its peers' liveness.
type Ring struct {
	members []string // sorted, unique
	hashes  []uint64 // sorted vnode positions
	owner   []int    // member index per vnode, aligned with hashes
}

// NewRing builds the ring. Member order does not matter (the set is
// sorted internally), but every participant must be given the same set —
// the fleet's agreement on ownership is exactly the agreement on this
// list. vnodes <= 0 uses DefaultVNodes.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	var ms []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(ms)
	type vn struct {
		h   uint64
		idx int
	}
	vns := make([]vn, 0, len(ms)*vnodes)
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			vns = append(vns, vn{h: ringHash(m + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(vns, func(a, b int) bool {
		if vns[a].h != vns[b].h {
			return vns[a].h < vns[b].h
		}
		return vns[a].idx < vns[b].idx // deterministic on (vanishingly rare) collisions
	})
	r := &Ring{members: ms, hashes: make([]uint64, len(vns)), owner: make([]int, len(vns))}
	for i, v := range vns {
		r.hashes[i] = v.h
		r.owner[i] = v.idx
	}
	return r, nil
}

// Members returns the sorted member set.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owners returns the n distinct members that own key, in failover order:
// the primary is the first member clockwise of the key's hash, and each
// further replica is the next distinct member around the ring. n is
// clamped to the member count. The same (members, key, n) always yields
// the same owners — this is the routing table.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	owners := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; len(owners) < n && i < len(r.hashes); i++ {
		idx := r.owner[(start+i)%len(r.hashes)]
		if !taken[idx] {
			taken[idx] = true
			owners = append(owners, r.members[idx])
		}
	}
	return owners
}

// Owns reports whether member is one of key's n owners.
func (r *Ring) Owns(member, key string, n int) bool {
	for _, o := range r.Owners(key, n) {
		if o == member {
			return true
		}
	}
	return false
}

// ringHash is FNV-64a followed by a 64-bit finalizer mix. Raw FNV of
// near-identical short strings ("r1#0", "r1#1", ...) is almost linear in
// the suffix, so each member's vnodes would land on one contiguous arc
// and the ring would degenerate into a handful of giant ranges; the
// multiply-xorshift finalizer (MurmurHash3's fmix64) scatters them.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
