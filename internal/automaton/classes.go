package automaton

import (
	"slices"

	"repro/internal/grammar"
)

// Representer classes (Chase/Proebsting index maps). A transition of
// operator op depends on a child state only through the costs of the
// nonterminals op's rules read at that child's position — its relevant
// set — and only relative to one another: Compute adds each rule's cost to
// exactly one relevant cost per child, so shifting a child's relevant costs
// by a constant shifts every candidate by the same constant, which
// normalization removes (chain rules carry no dynamic costs, so dynamic
// rules are no exception). Two states whose relevant costs agree after
// rebasing each on its own minimum (equivalently, on its first finite
// cost) are therefore interchangeable at that position: they fall into one
// representer class, and one Compute serves every child pair drawn from a
// pair of classes.
//
// Positions with the same relevant set project identically, so they share
// one ClassSpace. The offline generator (GenerateTables) classifies every
// state it interns; the on-demand engine (core.Engine) classifies every
// state at birth. Both number a space's classes in order of first
// appearance, which is what lets a seeded engine adopt a table set's
// projection rows and transition tables as they are.

// ClassSpace assigns the states of one relevant set to representer
// classes. Classes are identified by their first state (the sample) and
// found by scanning a short slice of projection hashes — real machine
// descriptions have at most a dozen or so classes per position — with an
// exact comparison on a hash match, so classifying allocates nothing
// unless it creates a class past the space's initial room. A ClassSpace
// is not safe for concurrent use; its owner serializes classification.
type ClassSpace struct {
	relevant []grammar.NT // ascending
	classes  []class
}

// class is one representer class: its projection hash and first state.
type class struct {
	hash   uint64
	sample *State
}

// classRoom is the number of classes each space has room for before its
// class list grows on its own.
const classRoom = 8

// Classes groups the child positions of a grammar's operators by relevant
// set into class spaces.
type Classes struct {
	// Of[op][p] is the space of child position p of op, -1 where op has
	// no position p or was left out.
	Of [][2]int32
	// Spaces lists the distinct spaces.
	Spaces []*ClassSpace
}

// NewClasses builds the class spaces of the child positions of every
// operator of g that include accepts (all operators when include is nil).
// The relevant set of a position counts every base rule of the operator,
// dynamic ones included. The spaces, their relevant sets and their
// initial class lists share a few allocations.
func NewClasses(g *grammar.Grammar, include func(grammar.OpID) bool) *Classes {
	c := &Classes{Of: make([][2]int32, g.NumOps())}
	in := make([]bool, g.NumNonterms())
	// pool holds every distinct relevant set back to back; bounds[sp] is
	// where space sp's set ends.
	var pool []grammar.NT
	var bounds []int
	for op := range g.Ops {
		c.Of[op] = [2]int32{-1, -1}
		if include != nil && !include(grammar.OpID(op)) {
			continue
		}
		for p := 0; p < g.Ops[op].Arity; p++ {
			clear(in)
			for _, ri := range g.BaseRules(grammar.OpID(op)) {
				in[g.Rules[ri].Kids[p]] = true
			}
			at := len(pool)
			for nt, ok := range in {
				if ok {
					pool = append(pool, grammar.NT(nt))
				}
			}
			sp, lo := 0, 0
			for ; sp < len(bounds) && !slices.Equal(pool[lo:bounds[sp]], pool[at:]); sp++ {
				lo = bounds[sp]
			}
			if sp == len(bounds) {
				bounds = append(bounds, len(pool))
			} else {
				pool = pool[:at]
			}
			c.Of[op][p] = int32(sp)
		}
	}
	spaces := make([]ClassSpace, len(bounds))
	room := make([]class, classRoom*len(bounds))
	c.Spaces = make([]*ClassSpace, len(bounds))
	lo := 0
	for sp, hi := range bounds {
		spaces[sp] = ClassSpace{
			relevant: pool[lo:hi:hi],
			classes:  room[sp*classRoom : sp*classRoom : (sp+1)*classRoom],
		}
		c.Spaces[sp] = &spaces[sp]
		lo = hi
	}
	return c
}

// Len returns the number of classes.
func (cs *ClassSpace) Len() int { return len(cs.classes) }

// Sample returns the first state classified into class c.
func (cs *ClassSpace) Sample(c int32) *State { return cs.classes[c].sample }

// Classify returns s's class, creating it (with s as its sample) when no
// earlier state shares s's projection; created reports that.
func (cs *ClassSpace) Classify(s *State) (c int32, created bool) {
	h := cs.hash(s)
	if c := cs.find(s, h); c >= 0 {
		return c, false
	}
	cs.classes = append(cs.classes, class{h, s})
	return int32(len(cs.classes) - 1), true
}

// Find returns s's class, or -1 when no classified state shares s's
// projection.
func (cs *ClassSpace) Find(s *State) int32 { return cs.find(s, cs.hash(s)) }

func (cs *ClassSpace) find(s *State, h uint64) int32 {
	for c := range cs.classes {
		if cs.classes[c].hash == h && cs.same(cs.classes[c].sample, s) {
			return int32(c)
		}
	}
	return -1
}

// hash mixes s's relevant costs in one pass, in place, each finite one
// rebased on the first finite one: the same shift-invariant canonical
// form as rebasing on the minimum.
func (cs *ClassSpace) hash(s *State) uint64 {
	h, base := uint64(0x9e3779b97f4a7c15), grammar.Inf
	for _, nt := range cs.relevant {
		d := s.Delta[nt]
		if !d.IsInf() {
			if base.IsInf() {
				base = d
			}
			d -= base
		}
		h ^= uint64(uint32(d))
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// same reports whether a and b have the same relevant costs up to a
// shift: the same infinite ones, and the same finite ones relative to the
// first finite one.
func (cs *ClassSpace) same(a, b *State) bool {
	ba, bb := grammar.Inf, grammar.Inf
	for _, nt := range cs.relevant {
		da, db := a.Delta[nt], b.Delta[nt]
		switch {
		case da.IsInf() || db.IsInf():
			if da.IsInf() != db.IsInf() {
				return false
			}
		case ba.IsInf():
			ba, bb = da, db
		case da-ba != db-bb:
			return false
		}
	}
	return true
}
