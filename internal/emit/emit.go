// Package emit turns selected derivations into assembly-like text.
//
// Rules carry templates (see grammar.Rule.Template). A template starting
// with '=' is a *value* template: it names the operand the rule's
// left-hand-side nonterminal stands for (addressing modes, immediates,
// registers) and emits no instruction. Any other non-empty template is an
// *instruction* template: the emitter allocates a fresh virtual register
// for the result and writes one line of assembly. Empty templates emit
// nothing and pass the operand of the rule's (single) right-hand-side
// nonterminal through, which is the common case for chain and helper
// rules.
//
// Substitutions: %0 and %1 expand to the operands of the rule's kid
// nonterminals, %c to the node's leaf value, %s to its symbol, and %d to
// the freshly allocated destination register. For multi-node source
// patterns, dotted paths descend through the helper rules that normal-form
// conversion introduced: in Store(addr, Plus(Load(addr), reg)) the operand
// of the inner reg is %1.1 (kid 1 of the Store, kid 1 of the Plus). A kid's
// operand is the one its own nonterminal stands for, including one a
// templated chain rule derives: with a: r "=(%0)", %0 of L(a) is "(v1)".
//
// # Programs
//
// Templates are parsed once per grammar, not per visit: Compile turns
// each rule's template into a short op list — literal spans as offsets
// into the template, kid references, %c, %s and %d — and a Program is
// read-only from then on. A Selector compiles its grammar once and every
// emitter its free list makes shares that program (NewEmitter); New
// compiles a program of its own for one-off callers. Kid references are
// resolved at compile time: each dotted step crosses a helper nonterminal
// with exactly one base rule, so a reference is a path of kid indices
// plus the nonterminal at its end, and a visit descends the node's kids
// and makes one slot lookup. A helper leaf needs none, because its operand
// is the leaf's text. Only a step through a nonterminal with other rules,
// which a user grammar may write and no shipped machine does, reads the
// derivation at run time, following the chain rules applied at the node;
// emitters of such a program record each slot's rule for it, and
// otherwise a helper leaf's own visit records no slot at all.
//
// Instruction templates append straight into the assembly buffer. Value
// templates expand into tmp, a scratch buffer, and are then copied into
// the operand arena: a kid never visited renders its leaf into the arena
// mid-expansion, so the arena cannot be the expansion buffer itself.
//
// The emitter exists for two reasons: the examples and CLI produce real
// output, and the experiments need "emitted target instructions" as their
// denominator and "identical code out of every engine" as a correctness
// check.
//
// # Allocation discipline
//
// A Program takes three allocations per grammar. A fresh Emitter
// allocates in proportion to the visits the reducer makes: each visited
// (node, nonterminal) appends one slot, chained to its node's previous
// slot from a per-node int32 head, so nothing is sized by nodes ×
// nonterminals. A warm Emitter (Reset after emitting forests at
// least as large) allocates nothing: slots, heads, the operand arena,
// register names and the assembly buffer keep their capacity, and Reset
// clears only what the last forest used. Operand text lives in the arena
// as unsafe zero-copy strings valid until the next Reset. The only
// storage that leaves the emitter is the Asm() string, interned through
// the shared Interner (or plain-copied without one) — never a view of
// recycled memory, so returned assembly stays valid forever.
package emit

import (
	"slices"
	"strconv"
	"unsafe"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/reduce"
)

// Emitter accumulates assembly for one forest. Use one Emitter per Cover;
// Reset recycles it for the next. Emitters are not safe for concurrent
// use — pool them (see Selector in the root package).
type Emitter struct {
	prog *Program

	// slots holds one entry per visited (node, nonterminal), in visit
	// order. heads[n.Index] is 1 + the index of node n's newest slot (0:
	// not visited), and each slot's prev continues that node's chain,
	// newest first, so the latest visit of a pair wins. slotRules[i] is
	// the rule reduced at slots[i], recorded only when the program walks
	// derivations at run time.
	slots     []slot
	heads     []int32
	slotRules []*grammar.Rule

	// arena backs within-call operand text (expanded value templates, leaf
	// payload renderings) as zero-copy views; tmp is the value-template
	// expansion scratch, separate from arena because an operand rendered
	// mid-expansion appends to the arena. Both are reused across Reset.
	arena []byte
	tmp   []byte

	// asm is the accumulated assembly text; regs the grown-once virtual
	// register name table ("r0", "r1", ...).
	asm  []byte
	regs []string

	// intern, when set, canonicalizes Asm() results (see Interner); visit
	// is the cached Visit method value, so callers passing the visitor
	// per call do not allocate a closure each time.
	intern *Interner
	visit  reduce.Visitor

	nextReg int
	instrs  int
}

// slot is one visited (node, nonterminal): the operand text its result
// is referenced by.
type slot struct {
	operand string
	prev    int32 // 1 + index of the node's previous slot; 0 ends the chain
	nt      grammar.NT
}

// New creates an emitter for g's rules with a program of its own, for
// one-off callers; an emitter pool shares one Compile(g) through
// NewEmitter instead. Nothing else is sized by g: storage grows with the
// first forest's visits.
func New(g *grammar.Grammar) *Emitter { return Compile(g).NewEmitter() }

// NewEmitter creates an emitter that runs p. Emitters made from one
// program share it.
func (p *Program) NewEmitter() *Emitter {
	e := &Emitter{prog: p}
	e.visit = e.Visit
	return e
}

// SetInterner shares in as the canonical store for Asm() results; all
// emitters pooled by one selector share one interner. A nil interner
// reverts to plain per-call copies.
func (e *Emitter) SetInterner(in *Interner) { e.intern = in }

// Visitor returns the emitter's reduce.Visitor without allocating: the
// method value is created once at construction.
func (e *Emitter) Visitor() reduce.Visitor { return e.visit }

// Reset clears all per-forest state so the emitter can be reused for the
// next Cover, keeping every buffer's capacity. Previously returned Asm
// strings stay valid: they were interned or copied out, never views of
// the recycled buffers.
func (e *Emitter) Reset() {
	e.asm = e.asm[:0]
	e.arena = e.arena[:0]
	// Heads past len stay zero: only heads[:len] is ever written.
	clear(e.heads)
	e.heads = e.heads[:0]
	// Clearing the used slots drops the forest's strings with it.
	clear(e.slots)
	e.slots = e.slots[:0]
	e.slotRules = e.slotRules[:0]
	e.nextReg = 0
	e.instrs = 0
}

// Visit is the reduce.Visitor that drives emission: it runs r's op list
// at n. r must be a rule of the grammar the program was compiled from.
func (e *Emitter) Visit(n *ir.Node, nt grammar.NT, r *grammar.Rule) {
	rp := &e.prog.rules[r.Index]
	var operand string
	switch rp.kind {
	case rulePass:
		operand = e.refOperand(n, e.prog.ops[rp.lo:rp.hi], rp.tmpl)
	case ruleValue:
		e.tmp = e.appendOps(e.tmp[:0], n, rp, "")
		operand = e.internArena(e.tmp)
	case ruleInstr:
		operand = e.regName(e.nextReg)
		e.nextReg++
		e.asm = append(e.asm, '\t')
		e.asm = e.appendOps(e.asm, n, rp, operand)
		e.asm = append(e.asm, '\n')
		e.instrs++
	case ruleSkip:
		return
	}
	if n.Index >= len(e.heads) {
		e.heads = slices.Grow(e.heads, n.Index+1-len(e.heads))[:n.Index+1]
	}
	e.slots = append(e.slots, slot{operand: operand, prev: e.heads[n.Index], nt: nt})
	e.heads[n.Index] = int32(len(e.slots))
	if e.prog.walks {
		e.slotRules = append(e.slotRules, r)
	}
}

// appendOps appends the text of rp's op list run at node n to dst; reg
// is the destination register.
func (e *Emitter) appendOps(dst []byte, n *ir.Node, rp *ruleProg, reg string) []byte {
	m := n // the current node of the reference in progress
	for _, o := range e.prog.ops[rp.lo:rp.hi] {
		switch o.kind {
		case opLit:
			dst = append(dst, rp.tmpl[o.a:o.b]...)
		case opVal:
			dst = strconv.AppendInt(dst, n.Val, 10)
		case opSym:
			dst = append(dst, n.Sym...)
		case opReg:
			dst = append(dst, reg...)
		case opBad:
			dst = append(dst, '?')
		case opKid:
			m = m.Kids[o.k]
		case opSlot:
			dst = append(dst, e.operandOf(kid(m, o.k), o.nt)...)
			m = n
		case opLeaf:
			dst = appendLeaf(dst, kid(m, o.k))
			m = n
		case opWalk:
			dst = append(dst, e.walk(kid(m, o.k), o.nt, rp.tmpl[o.a:o.b])...)
			m = n
		}
	}
	return dst
}

// refOperand returns the operand the reference ops names at node n,
// sharing the text rather than copying it.
func (e *Emitter) refOperand(n *ir.Node, ops []op, tmpl string) string {
	for _, o := range ops {
		switch o.kind {
		case opKid:
			n = n.Kids[o.k]
		case opSlot:
			return e.operandOf(kid(n, o.k), o.nt)
		case opLeaf:
			return e.leafText(kid(n, o.k))
		case opWalk:
			return e.walk(kid(n, o.k), o.nt, tmpl[o.a:o.b])
		}
	}
	return "?"
}

// kid returns n's kid k, or n itself when k < 0.
func kid(n *ir.Node, k int8) *ir.Node {
	if k < 0 {
		return n
	}
	return n.Kids[k]
}

// walk resolves the rest of a dotted path, the template bytes path
// ("0", "1.0"), from node n derived as nt, where nt is not a helper with
// one base rule: each step follows the chain rules the derivation applied
// at the node down to its base rule, whose kid the step names.
func (e *Emitter) walk(n *ir.Node, nt grammar.NT, path string) string {
	for i := 0; i < len(path); i += 2 {
		s := e.find(n, nt)
		for s != 0 && e.slotRules[s-1].IsChain {
			s = e.find(n, e.slotRules[s-1].ChainRHS)
		}
		k := int(path[i] - '0')
		if s == 0 || k >= len(n.Kids) {
			return "?"
		}
		n, nt = n.Kids[k], e.slotRules[s-1].Kids[k]
	}
	return e.operandOf(n, nt)
}

// internArena copies b into the arena and returns a zero-copy view, valid
// until the next Reset — the lifetime of every operand string.
func (e *Emitter) internArena(b []byte) string {
	start := len(e.arena)
	e.arena = append(e.arena, b...)
	v := e.arena[start:]
	if len(v) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(v), len(v))
}

// regName returns the interned name of virtual register i. Names are
// plain heap strings retained across Reset, so a warm emitter never
// re-renders them.
func (e *Emitter) regName(i int) string {
	for len(e.regs) <= i {
		e.regs = append(e.regs, "r"+strconv.Itoa(len(e.regs)))
	}
	return e.regs[i]
}

// find returns 1 + the index of node n's newest slot for nt, or 0 when
// (n, nt) has not been visited since the last Reset. A node's chain is
// one to three slots long on the corpus.
func (e *Emitter) find(n *ir.Node, nt grammar.NT) int32 {
	if n.Index >= len(e.heads) {
		return 0
	}
	for i := e.heads[n.Index]; i != 0; {
		s := &e.slots[i-1]
		if s.nt == nt {
			return i
		}
		i = s.prev
	}
	return 0
}

// operandOf returns the operand recorded for (n, nt); a pair not visited
// renders as n's leaf text.
func (e *Emitter) operandOf(n *ir.Node, nt grammar.NT) string {
	if i := e.find(n, nt); i != 0 {
		return e.slots[i-1].operand
	}
	return e.leafText(n)
}

// leafText renders a leaf payload: the symbol if present, else the value
// as an arena-backed decimal.
func (e *Emitter) leafText(n *ir.Node) string {
	if n.Sym != "" {
		return n.Sym
	}
	start := len(e.arena)
	e.arena = strconv.AppendInt(e.arena, n.Val, 10)
	v := e.arena[start:]
	return unsafe.String(unsafe.SliceData(v), len(v))
}

// appendLeaf appends n's leaf text to dst.
func appendLeaf(dst []byte, n *ir.Node) []byte {
	if n.Sym != "" {
		return append(dst, n.Sym...)
	}
	return strconv.AppendInt(dst, n.Val, 10)
}

// Asm returns the emitted assembly text: interned through the shared
// Interner when one is set, otherwise a fresh copy. Either way the result
// owns its bytes — it survives Reset and further emission.
func (e *Emitter) Asm() string {
	if len(e.asm) == 0 {
		return ""
	}
	if e.intern != nil {
		return e.intern.Intern(e.asm)
	}
	return string(e.asm)
}

// Instructions returns the number of emitted instruction lines — the
// "emitted target instructions" denominator of the per-instruction
// experiment figures.
func (e *Emitter) Instructions() int { return e.instrs }

// Emit covers f with lab using reducer rd and returns the assembly, the
// emitted instruction count, and the derivation cost.
func Emit(rd *reduce.Reducer, f *ir.Forest, lab reduce.Labeling, g *grammar.Grammar) (asm string, instrs int, cost grammar.Cost, err error) {
	em := New(g)
	cost, err = rd.Cover(f, lab, em.Visit)
	if err != nil {
		return "", 0, 0, err
	}
	return em.Asm(), em.Instructions(), cost, nil
}
