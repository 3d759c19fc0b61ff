package emit

import (
	"strconv"
	"strings"

	"repro/internal/grammar"
	"repro/internal/ir"
)

// refEmitter is the template interpreter the compiled programs replaced,
// kept as the trusted semantics they are checked against: it parses each
// template on every visit and resolves every kid path through the rules
// the derivation applied, as recorded per (node, nonterminal).
type refEmitter struct {
	slots  map[refKey]refSlot
	asm    strings.Builder
	regs   int
	instrs int
}

type refKey struct {
	node int
	nt   grammar.NT
}

type refSlot struct {
	rule    *grammar.Rule
	operand string
}

func newRefEmitter() *refEmitter { return &refEmitter{slots: map[refKey]refSlot{}} }

func (e *refEmitter) visit(n *ir.Node, nt grammar.NT, r *grammar.Rule) {
	var op string
	switch {
	case r.Template == "":
		if r.IsChain {
			op = e.operandOf(n, r.ChainRHS)
		} else if len(n.Kids) > 0 {
			op = e.operandOf(n.Kids[0], r.Kids[0])
		} else {
			op = leafString(n)
		}
	case strings.HasPrefix(r.Template, "="):
		op = e.expand(r.Template[1:], n, r, "")
	default:
		op = "r" + strconv.Itoa(e.regs)
		e.regs++
		e.asm.WriteString("\t" + e.expand(r.Template, n, r, op) + "\n")
		e.instrs++
	}
	e.slots[refKey{n.Index, nt}] = refSlot{rule: r, operand: op}
}

// expand substitutes tmpl's escapes at node n, reduced by rule r.
func (e *refEmitter) expand(tmpl string, n *ir.Node, r *grammar.Rule, dst string) string {
	var b strings.Builder
	for i := 0; i < len(tmpl); i++ {
		c := tmpl[i]
		if c != '%' || i+1 >= len(tmpl) {
			b.WriteByte(c)
			continue
		}
		i++
		switch tmpl[i] {
		case '0', '1':
			path := []int{int(tmpl[i] - '0')}
			for i+2 < len(tmpl) && tmpl[i+1] == '.' && tmpl[i+2] >= '0' && tmpl[i+2] <= '9' {
				path = append(path, int(tmpl[i+2]-'0'))
				i += 2
			}
			if r.IsChain {
				b.WriteString(e.operandOf(n, r.ChainRHS))
			} else {
				b.WriteString(e.pathOperand(n, r, path))
			}
		case 'c':
			b.WriteString(strconv.FormatInt(n.Val, 10))
		case 's':
			b.WriteString(n.Sym)
		case 'd':
			b.WriteString(dst)
		case '%':
			b.WriteByte('%')
		default:
			b.WriteByte('%')
			b.WriteByte(tmpl[i])
		}
	}
	return b.String()
}

// pathOperand resolves a dotted kid path from base rule r at node n: each
// step moves to a kid, and every step but the last continues from the
// base rule the derivation applied there, below any chain rules. The last
// step's operand is that of the kid's own nonterminal.
func (e *refEmitter) pathOperand(n *ir.Node, r *grammar.Rule, path []int) string {
	for step, ki := range path {
		if r == nil || r.IsChain || ki >= len(n.Kids) {
			return "?"
		}
		nt := r.Kids[ki]
		n = n.Kids[ki]
		if step == len(path)-1 {
			return e.operandOf(n, nt)
		}
		s, ok := e.slots[refKey{n.Index, nt}]
		for ok && s.rule.IsChain {
			s, ok = e.slots[refKey{n.Index, s.rule.ChainRHS}]
		}
		r = nil
		if ok {
			r = s.rule
		}
	}
	return "?"
}

func (e *refEmitter) operandOf(n *ir.Node, nt grammar.NT) string {
	if s, ok := e.slots[refKey{n.Index, nt}]; ok {
		return s.operand
	}
	return leafString(n)
}

func leafString(n *ir.Node) string {
	if n.Sym != "" {
		return n.Sym
	}
	return strconv.FormatInt(n.Val, 10)
}
