package emit

import (
	"strings"

	"repro/internal/grammar"
)

// Program is a grammar's templates compiled to op lists, one per rule.
// It is read-only once Compile returns, so any number of emitters may
// share one, from any goroutine.
type Program struct {
	rules []ruleProg // indexed by grammar.Rule.Index
	ops   []op       // every rule's op list, back to back
	// walks reports that some reference reads the derivation at run time
	// (opWalk): emitters of this program then record each slot's rule.
	walks bool
}

// ruleProg is one rule's compiled template.
type ruleProg struct {
	tmpl   string // the template without a value template's '='; opLit spans index it
	lo, hi int32  // the rule's op list is Program.ops[lo:hi]
	kind   ruleKind
}

type ruleKind uint8

const (
	// rulePass: the operand is one reference's operand, shared without a
	// copy — empty templates and value templates such as "=%0".
	rulePass ruleKind = iota
	// ruleValue: the operand is the expanded value template.
	ruleValue
	// ruleInstr: one instruction line; the operand is a fresh register.
	ruleInstr
	// ruleSkip: a helper leaf, whose operand every reference renders from
	// the leaf itself; unless the program walks derivations, nothing reads
	// its slot, so none is recorded.
	ruleSkip
)

// op is one step of a rule's op list. A kid reference is one operand op
// (opSlot, opLeaf, opWalk), preceded by an opKid per dotted step but the
// last; the operand op takes the last step itself, to kid k, or none when
// k < 0. The next reference starts at the visited node again. The
// operand ops are the kinds after opKid.
type op struct {
	kind opKind
	k    int8
	nt   grammar.NT
	a, b int32
}

type opKind uint8

const (
	opLit  opKind = iota // the template bytes tmpl[a:b]
	opVal                // %c: the visited node's leaf value
	opSym                // %s: the visited node's symbol
	opReg                // %d: the destination register
	opBad                // a kid the rule does not have: "?"
	opKid                // descend to kid k of the current node
	opSlot               // the operand recorded for (kid k, nt)
	opLeaf               // kid k's leaf text: a helper leaf's operand
	opWalk               // the dotted steps tmpl[a:b] from (kid k, nt), read from the derivation
)

// Compile compiles every rule of g once. The program takes three
// allocations for a grammar of up to maxStackNonterms nonterminals: the
// Program and its two slabs, the op slab sized by a bound counted from
// the templates.
func Compile(g *grammar.Grammar) *Program {
	var scratch [maxStackNonterms]int32
	c := compiler{g: g, only: scratch[:0]}
	if len(g.Nonterms) > len(scratch) {
		c.only = make([]int32, 0, len(g.Nonterms))
	}
	c.only = c.only[:len(g.Nonterms)]
	for i := range g.Rules {
		if lhs := g.Rules[i].LHS; c.only[lhs] == 0 {
			c.only[lhs] = int32(i) + 1
		} else {
			c.only[lhs] = -1
		}
	}

	// Each escape makes at most one op, one more per dotted step, and at
	// most one literal run before it; one more run may end the template.
	n := 0
	for i := range g.Rules {
		t := g.Rules[i].Template
		n += 2*strings.Count(t, "%") + strings.Count(t, ".") + 1
	}
	p := &Program{rules: make([]ruleProg, len(g.Rules)), ops: make([]op, 0, n)}
	for i := range g.Rules {
		lo := len(p.ops)
		var kind ruleKind
		var tmpl string
		p.ops, kind, tmpl = c.rule(&g.Rules[i], p.ops)
		p.rules[i] = ruleProg{tmpl: tmpl, lo: int32(lo), hi: int32(len(p.ops)), kind: kind}
	}
	p.walks = c.walks
	if !p.walks {
		for i := range g.Rules {
			if c.isHelperLeaf(g.Rules[i].LHS) {
				p.rules[i].kind = ruleSkip
			}
		}
	}
	return p
}

// maxStackNonterms bounds the grammars whose per-nonterminal compile
// scratch lives on the stack; the shipped machines have at most 84.
const maxStackNonterms = 256

// compiler holds what compiling one grammar's templates consults.
type compiler struct {
	g *grammar.Grammar
	// only[nt] is 1 + the index of nt's one rule, 0 when no rule derives
	// nt and -1 when several do.
	only []int32
	// walks records that some reference compiled to opWalk.
	walks bool
}

// rule appends r's op list to ops and returns it with the rule's kind and
// the template its literal spans index.
func (c *compiler) rule(r *grammar.Rule, ops []op) ([]op, ruleKind, string) {
	tmpl := r.Template
	if tmpl == "" {
		// Pass-through: a chain rule forwards its right-hand side's
		// operand, a base rule its first kid's, a leaf rule the leaf's.
		if len(r.Kids) == 0 && !r.IsChain {
			return append(ops, op{kind: opLeaf, k: -1}), rulePass, ""
		}
		return c.ref(ops, r, "0", 0), rulePass, ""
	}
	kind := ruleInstr
	if tmpl[0] == '=' {
		kind, tmpl = ruleValue, tmpl[1:]
	}
	start := len(ops)
	lit := func(a, b int) {
		if last := len(ops) - 1; last >= start && ops[last].kind == opLit && ops[last].b == int32(a) {
			ops[last].b = int32(b)
			return
		}
		ops = append(ops, op{kind: opLit, a: int32(a), b: int32(b)})
	}
	for i := 0; i < len(tmpl); {
		// A literal run reaches up to the next '%'; a trailing '%' is
		// literal too.
		j := strings.IndexByte(tmpl[i:], '%')
		switch {
		case j < 0:
			j = len(tmpl) - i
			fallthrough
		case j > 0:
			lit(i, i+j)
			i += j
			continue
		case i+1 == len(tmpl):
			lit(i, i+1)
			i++
			continue
		}
		esc := tmpl[i+1]
		i += 2
		switch esc {
		case '0', '1':
			// A dotted path such as %1.1 descends through helper rules.
			end := i
			for end+1 < len(tmpl) && tmpl[end] == '.' && tmpl[end+1] >= '0' && tmpl[end+1] <= '9' {
				end += 2
			}
			ops = c.ref(ops, r, tmpl[i-1:end], i-1)
			i = end
		case 'c':
			ops = append(ops, op{kind: opVal})
		case 's':
			ops = append(ops, op{kind: opSym})
		case 'd':
			ops = append(ops, op{kind: opReg})
		case '%':
			lit(i-1, i)
		default:
			lit(i-2, i) // unknown escapes pass through
		}
	}
	if kind == ruleValue && isOneRef(ops[start:]) {
		kind = rulePass
	}
	return ops, kind, tmpl
}

// ref appends the reference of r's dotted kid path, the template bytes
// path at offset at ("1", "1.0"). A chain rule's reference, with any
// path, is its right-hand side's operand at the same node. Each step but
// the last crosses a helper nonterminal, whose one base rule names the
// next step's nonterminal; a step through any other nonterminal leaves
// the rest of the path to opWalk.
func (c *compiler) ref(ops []op, r *grammar.Rule, path string, at int) []op {
	if r.IsChain {
		return append(ops, c.operand(-1, r.ChainRHS))
	}
	mark := len(ops)
	kids := r.Kids
	for i := 0; ; i += 2 {
		k := int(path[i] - '0')
		if k >= len(kids) {
			return append(ops[:mark], op{kind: opBad})
		}
		nt := kids[k]
		if i+1 >= len(path) {
			return append(ops, c.operand(k, nt))
		}
		h := c.helperRule(nt)
		if h == nil {
			c.walks = true
			return append(ops, op{kind: opWalk, k: int8(k), nt: nt, a: int32(at + i + 2), b: int32(at + len(path))})
		}
		ops = append(ops, op{kind: opKid, k: int8(k)})
		kids = h.Kids
	}
}

// operand is the op reading the operand of kid k (the current node when
// k < 0) derived as nt: the leaf itself for a helper leaf, else its slot.
func (c *compiler) operand(k int, nt grammar.NT) op {
	if c.isHelperLeaf(nt) {
		return op{kind: opLeaf, k: int8(k)}
	}
	return op{kind: opSlot, k: int8(k), nt: nt}
}

// isHelperLeaf reports whether nt is a helper nonterminal whose one rule
// matches a leaf and emits nothing, so its operand is the leaf's text.
func (c *compiler) isHelperLeaf(nt grammar.NT) bool {
	h := c.helperRule(nt)
	return h != nil && len(h.Kids) == 0 && h.Template == ""
}

// helperRule returns the one rule deriving nt when nt is a helper
// nonterminal and that rule is a base rule, as normal-form conversion
// makes it; otherwise nil.
func (c *compiler) helperRule(nt grammar.NT) *grammar.Rule {
	if !c.g.Nonterms[nt].Helper || c.only[nt] <= 0 {
		return nil
	}
	if h := &c.g.Rules[c.only[nt]-1]; !h.IsChain {
		return h
	}
	return nil
}

// isOneRef reports whether ops is exactly one reference.
func isOneRef(ops []op) bool {
	if len(ops) == 0 {
		return false
	}
	for _, o := range ops[:len(ops)-1] {
		if o.kind != opKid {
			return false
		}
	}
	return ops[len(ops)-1].kind > opKid // an operand op
}
