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
// of the inner reg is %1.1 (kid 1 of the Store, kid 1 of the Plus).
//
// The emitter exists for two reasons: the examples and CLI produce real
// output, and the experiments need "emitted target instructions" as their
// denominator and "identical code out of every engine" as a correctness
// check.
//
// # Allocation discipline
//
// A fresh Emitter allocates in proportion to the visits the reducer
// makes: each visited (node, nonterminal) appends one slot, chained to its
// node's previous slot from a per-node int32 head, so nothing is sized by
// nodes × nonterminals. A warm Emitter (Reset after emitting forests at
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
	"strings"
	"unsafe"

	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/reduce"
)

// Emitter accumulates assembly for one forest. Use one Emitter per Cover;
// Reset recycles it for the next. Emitters are not safe for concurrent
// use — pool them (see Selector in the root package).
type Emitter struct {
	// slots holds one entry per visited (node, nonterminal), in visit
	// order. heads[n.Index] is 1 + the index of node n's newest slot (0:
	// not visited), and each slot's prev continues that node's chain,
	// newest first, so the latest visit of a pair wins.
	slots []slot
	heads []int32

	// arena backs within-call operand text (expanded value templates, leaf
	// payload renderings) as zero-copy views; tmp is the template-expansion
	// scratch, separate from arena so nested operand rendering cannot
	// interleave bytes into an expansion in progress. Both are reused
	// across Reset.
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

// slot is one visited (node, nonterminal): the rule reduced there and the
// operand text its result is referenced by.
type slot struct {
	nt      grammar.NT
	prev    int32 // 1 + index of the node's previous slot; 0 ends the chain
	rule    *grammar.Rule
	operand string
}

// New creates an emitter for g's rules. Nothing is sized by g: storage
// grows with the first forest's visits.
func New(g *grammar.Grammar) *Emitter {
	e := &Emitter{}
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
	e.nextReg = 0
	e.instrs = 0
}

// Visit is the reduce.Visitor that drives emission.
func (e *Emitter) Visit(n *ir.Node, nt grammar.NT, r *grammar.Rule) {
	var op string
	switch {
	case r.Template == "":
		// Pass-through: chain rules forward the RHS nonterminal's operand;
		// base rules without templates forward their first kid (or render
		// the leaf payload).
		if r.IsChain {
			op = e.operandOf(n, r.ChainRHS)
		} else if len(n.Kids) > 0 {
			op = e.operandOf(n.Kids[0], r.Kids[0])
		} else {
			op = e.leafText(n)
		}
	case strings.HasPrefix(r.Template, "="):
		e.expandTmp(r.Template[1:], n, r, "")
		op = e.internArena(e.tmp)
	default:
		op = e.regName(e.nextReg)
		e.nextReg++
		e.expandTmp(r.Template, n, r, op)
		e.asm = append(e.asm, '\t')
		e.asm = append(e.asm, e.tmp...)
		e.asm = append(e.asm, '\n')
		e.instrs++
	}
	if n.Index >= len(e.heads) {
		e.heads = slices.Grow(e.heads, n.Index+1-len(e.heads))[:n.Index+1]
	}
	e.slots = append(e.slots, slot{nt: nt, prev: e.heads[n.Index], rule: r, operand: op})
	e.heads[n.Index] = int32(len(e.slots))
}

// expandTmp substitutes template escapes into e.tmp.
func (e *Emitter) expandTmp(tmpl string, n *ir.Node, r *grammar.Rule, dst string) {
	e.tmp = e.tmp[:0]
	for i := 0; i < len(tmpl); i++ {
		c := tmpl[i]
		if c != '%' || i+1 >= len(tmpl) {
			e.tmp = append(e.tmp, c)
			continue
		}
		i++
		switch tmpl[i] {
		case '0', '1':
			ki := int(tmpl[i] - '0')
			// Collect a dotted path: %1.1 descends through helper rules.
			var pbuf [4]int
			path := append(pbuf[:0], ki)
			for i+2 < len(tmpl) && tmpl[i+1] == '.' && tmpl[i+2] >= '0' && tmpl[i+2] <= '9' {
				path = append(path, int(tmpl[i+2]-'0'))
				i += 2
			}
			if r.IsChain {
				e.tmp = append(e.tmp, e.operandOf(n, r.ChainRHS)...)
			} else {
				e.tmp = append(e.tmp, e.pathOperand(n, r, path)...)
			}
		case 'c':
			e.tmp = strconv.AppendInt(e.tmp, n.Val, 10)
		case 's':
			e.tmp = append(e.tmp, n.Sym...)
		case 'd':
			e.tmp = append(e.tmp, dst...)
		case '%':
			e.tmp = append(e.tmp, '%')
		default:
			e.tmp = append(e.tmp, '%', tmpl[i])
		}
	}
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

// pathOperand resolves a dotted kid path starting at base rule r of node n:
// each step moves to kid path[k] of the current node, using the rule
// reduced at the current (node, nonterminal) to find the kid nonterminal.
func (e *Emitter) pathOperand(n *ir.Node, r *grammar.Rule, path []int) string {
	for step, ki := range path {
		if r == nil || r.IsChain || ki >= len(n.Kids) {
			return "?"
		}
		nt := r.Kids[ki]
		n = n.Kids[ki]
		// Follow chain rules applied at the kid down to a base rule so a
		// further path step has kids to descend into.
		s := e.find(n, nt)
		for s != nil && s.rule.IsChain {
			nt = s.rule.ChainRHS
			s = e.find(n, nt)
		}
		if step == len(path)-1 {
			return e.operandOf(n, nt)
		}
		r = nil
		if s != nil {
			r = s.rule
		}
	}
	return "?"
}

// find returns node n's newest slot for nt, or nil when (n, nt) has not
// been visited since the last Reset. A node's chain is one to three slots
// long on the corpus.
func (e *Emitter) find(n *ir.Node, nt grammar.NT) *slot {
	if n.Index >= len(e.heads) {
		return nil
	}
	for i := e.heads[n.Index]; i != 0; {
		s := &e.slots[i-1]
		if s.nt == nt {
			return s
		}
		i = s.prev
	}
	return nil
}

func (e *Emitter) operandOf(n *ir.Node, nt grammar.NT) string {
	if s := e.find(n, nt); s != nil {
		return s.operand
	}
	// A kid whose reduction carried no template at all: render the leaf.
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
