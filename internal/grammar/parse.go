package grammar

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a burg-style grammar description and returns a validated,
// normal-form Grammar.
//
// Syntax (line oriented; '//' and '#' start comments; newlines inside
// parentheses are ignored so patterns may wrap):
//
//	%name  x86
//	%start stmt
//	%term  Plus(2) Load(1) Reg(0) Const(0)
//
//	reg:  Reg                       = 2 (0)
//	reg:  Plus(reg, reg)            = 4 (1)  "addq %1, %0"
//	reg:  Load(addr)                = 3 (1)  "movq (%0), %d"
//	addr: reg                       = 1 (0)
//	con:  Const                         (0)
//	reg:  Const                         (dyn imm16)  "li %d, %c"
//	stmt: Store(addr, Plus(Load(addr), reg)) = 6 (1) "addq %1, (%0)"
//
// Rule numbers ("= n") are optional; unnumbered rules are assigned numbers
// after the largest explicit one. Costs default to 0 when omitted. A cost
// of "(dyn name)" marks a dynamic-cost rule; the name is bound to a Go
// function via DynEnv at engine-construction time. Multi-node patterns are
// split into normal form automatically (see Normalize).
//
// On success, parsing allocates little beyond what the Grammar keeps:
// tokens are values whose text is a substring of src, pattern nodes come
// from a few slabs, and rule source texts are rendered once each into
// exactly sized strings.
func Parse(src string) (*Grammar, error) {
	p := &parser{lex: lexer{src: src, line: 1}}
	raw, err := p.parse()
	if err != nil {
		return nil, err
	}
	return raw.finish()
}

// MustParse is Parse for statically known grammars; it panics on error.
func MustParse(src string) *Grammar {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

// ---------------------------------------------------------------------------
// Raw (pre-normalization) representation

// PatNode is a node of a source-level rule pattern: either an operator with
// sub-patterns or a nonterminal leaf.
type PatNode struct {
	IsOp bool
	Name string // operator or nonterminal name
	Kids []*PatNode
}

func (p *PatNode) String() string {
	if !p.IsOp || len(p.Kids) == 0 {
		return p.Name
	}
	return ruleText("", p)
}

// textLen is the length of p's String.
func (p *PatNode) textLen() int {
	n := len(p.Name)
	if p.IsOp && len(p.Kids) > 0 {
		n += 2 * len(p.Kids) // "(" + ")" + ", " between kids
		for _, k := range p.Kids {
			n += k.textLen()
		}
	}
	return n
}

// writeTo appends p's String to b.
func (p *PatNode) writeTo(b *strings.Builder) {
	b.WriteString(p.Name)
	if !p.IsOp || len(p.Kids) == 0 {
		return
	}
	b.WriteByte('(')
	for i, k := range p.Kids {
		if i > 0 {
			b.WriteString(", ")
		}
		k.writeTo(b)
	}
	b.WriteByte(')')
}

// ruleText renders the source text of the rule lhs: p ("lhs: p"), or p
// alone when lhs is empty, in one exactly sized allocation.
func ruleText(lhs string, p *PatNode) string {
	var b strings.Builder
	n := p.textLen()
	if lhs != "" {
		n += len(lhs) + 2
	}
	b.Grow(n)
	if lhs != "" {
		b.WriteString(lhs)
		b.WriteString(": ")
	}
	p.writeTo(&b)
	return b.String()
}

// rawRule is a parsed but not yet normalized rule.
type rawRule struct {
	line     int
	lhs      string
	pat      *PatNode
	id       int // -1 if unnumbered
	cost     Cost
	dyn      string
	template string
	src      string
}

// rawGrammar collects parse results before normalization and validation.
type rawGrammar struct {
	name  string
	start string
	terms []Op
	// opIDs maps a term's name to its index in terms.
	opIDs map[string]OpID
	rules []rawRule
	// opNodes and opKids count the operator nodes of all patterns and
	// their children: normalization makes one rule per operator node, and
	// those rules' Kids hold opKids nonterminals in all.
	opNodes, opKids int
	// nodes and kids are the slabs pattern nodes and their kid slices are
	// carved from, so a pattern costs no allocation of its own: patterns
	// are garbage once normalization has lowered them.
	nodes []PatNode
	kids  []*PatNode
}

// patSlab is the number of pattern nodes, and of kid pointers, one slab
// holds: large enough that a machine description takes a handful, small
// enough that the last one's slack stays a few kilobytes.
const patSlab = 64

// newPatNode carves a pattern node from the node slab.
func (raw *rawGrammar) newPatNode(name string, isOp bool) *PatNode {
	if len(raw.nodes) == cap(raw.nodes) {
		raw.nodes = make([]PatNode, 0, patSlab)
	}
	raw.nodes = append(raw.nodes, PatNode{Name: name, IsOp: isOp})
	return &raw.nodes[len(raw.nodes)-1]
}

// newKids carves an empty kid slice of capacity n from the kid slab.
func (raw *rawGrammar) newKids(n int) []*PatNode {
	if cap(raw.kids)-len(raw.kids) < n {
		raw.kids = make([]*PatNode, 0, max(patSlab, n))
	}
	at := len(raw.kids)
	raw.kids = raw.kids[:at+n]
	return raw.kids[at : at : at+n]
}

// ---------------------------------------------------------------------------
// Lexer

type tokKind int

const (
	tEOF tokKind = iota
	tNewline
	tIdent
	tNum
	tString
	tPunct // ( ) , : = %
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src   string
	pos   int
	line  int
	depth int // parenthesis nesting; newlines inside parens are skipped
}

func (l *lexer) next() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.pos++
			l.line++
			if l.depth > 0 {
				continue
			}
			return token{tNewline, "\n", l.line - 1}
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		case c == '"':
			return l.lexString()
		case isIdentStart(c):
			return l.lexIdent()
		case c >= '0' && c <= '9' || c == '-':
			return l.lexNum()
		case c == '(':
			l.depth++
			l.pos++
			return token{tPunct, "(", l.line}
		case c == ')':
			if l.depth > 0 {
				l.depth--
			}
			l.pos++
			return token{tPunct, ")", l.line}
		case c == ',' || c == ':' || c == '=' || c == '%':
			l.pos++
			return token{tPunct, l.src[l.pos-1 : l.pos], l.line}
		default:
			// No rule accepts any other byte: the parser reports it.
			return token{tPunct, string(c), l.line}
		}
	}
	return token{tEOF, "", l.line}
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) lexString() token {
	start := l.pos + 1
	i := start
	for i < len(l.src) && l.src[i] != '"' && l.src[i] != '\n' {
		i++
	}
	text := l.src[start:i]
	if i < len(l.src) && l.src[i] == '"' {
		i++
	}
	l.pos = i
	return token{tString, text, l.line}
}

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	return token{tIdent, l.src[start:l.pos], l.line}
}

func (l *lexer) lexNum() token {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	return token{tNum, l.src[start:l.pos], l.line}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

// ---------------------------------------------------------------------------
// Parser

type parser struct {
	lex lexer
	// peeked is the token peek read ahead, valid when hasPeek is set.
	peeked  token
	hasPeek bool
}

func (p *parser) next() token {
	if p.hasPeek {
		p.hasPeek = false
		return p.peeked
	}
	return p.lex.next()
}

func (p *parser) peek() token {
	if !p.hasPeek {
		p.peeked = p.lex.next()
		p.hasPeek = true
	}
	return p.peeked
}

func (p *parser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("grammar:%d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) parse() (*rawGrammar, error) {
	raw := &rawGrammar{name: "grammar", opIDs: map[string]OpID{}}
	for {
		t := p.next()
		switch {
		case t.kind == tEOF:
			return raw, nil
		case t.kind == tNewline:
			continue
		case t.kind == tPunct && t.text == "%":
			if err := p.parseDirective(raw); err != nil {
				return nil, err
			}
		case t.kind == tIdent:
			if err := p.parseRule(raw, t); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(t.line, "unexpected token %q", t.text)
		}
	}
}

func (p *parser) parseDirective(raw *rawGrammar) error {
	t := p.next()
	if t.kind != tIdent {
		return p.errf(t.line, "expected directive name after %%")
	}
	switch t.text {
	case "name":
		n := p.next()
		if n.kind != tIdent {
			return p.errf(n.line, "%%name needs an identifier")
		}
		raw.name = n.text
	case "start":
		n := p.next()
		if n.kind != tIdent {
			return p.errf(n.line, "%%start needs a nonterminal name")
		}
		raw.start = n.text
	case "term":
		for {
			n := p.peek()
			if n.kind != tIdent {
				break
			}
			p.next()
			arity := 0
			if q := p.peek(); q.kind == tPunct && q.text == "(" {
				p.next()
				a := p.next()
				if a.kind != tNum {
					return p.errf(a.line, "%%term %s: expected arity number", n.text)
				}
				v, err := strconv.Atoi(a.text)
				if err != nil || v < 0 || v > MaxArity {
					return p.errf(a.line, "%%term %s: arity must be 0..%d", n.text, MaxArity)
				}
				arity = v
				if c := p.next(); !(c.kind == tPunct && c.text == ")") {
					return p.errf(c.line, "%%term %s: expected ')'", n.text)
				}
			}
			if _, dup := raw.opIDs[n.text]; dup {
				return p.errf(n.line, "duplicate %%term %s", n.text)
			}
			raw.opIDs[n.text] = OpID(len(raw.terms))
			raw.terms = append(raw.terms, Op{Name: n.text, Arity: arity})
		}
	default:
		return p.errf(t.line, "unknown directive %%%s", t.text)
	}
	return p.endLine()
}

func (p *parser) endLine() error {
	t := p.next()
	if t.kind == tNewline || t.kind == tEOF {
		return nil
	}
	return p.errf(t.line, "unexpected %q at end of line", t.text)
}

func (p *parser) parseRule(raw *rawGrammar, lhs token) error {
	r := rawRule{line: lhs.line, lhs: lhs.text, id: -1}
	if t := p.next(); !(t.kind == tPunct && t.text == ":") {
		return p.errf(t.line, "expected ':' after rule left-hand side %q", lhs.text)
	}
	pat, err := p.parsePattern(raw)
	if err != nil {
		return err
	}
	r.pat = pat
	// Optional "= number".
	if t := p.peek(); t.kind == tPunct && t.text == "=" {
		p.next()
		n := p.next()
		if n.kind != tNum {
			return p.errf(n.line, "expected rule number after '='")
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return p.errf(n.line, "bad rule number %q", n.text)
		}
		r.id = v
	}
	// Optional "(cost)" or "(dyn name)".
	if t := p.peek(); t.kind == tPunct && t.text == "(" {
		p.next()
		c := p.next()
		switch {
		case c.kind == tNum:
			v, err := strconv.Atoi(c.text)
			if err != nil || v < 0 || Cost(v) >= Inf {
				return p.errf(c.line, "bad cost %q", c.text)
			}
			r.cost = Cost(v)
		case c.kind == tIdent && c.text == "dyn":
			n := p.next()
			if n.kind != tIdent {
				return p.errf(n.line, "expected dynamic-cost function name after 'dyn'")
			}
			r.dyn = n.text
		default:
			return p.errf(c.line, "expected cost number or 'dyn name', got %q", c.text)
		}
		if t := p.next(); !(t.kind == tPunct && t.text == ")") {
			return p.errf(t.line, "expected ')' after cost")
		}
	}
	// Optional template string.
	if t := p.peek(); t.kind == tString {
		p.next()
		r.template = t.text
	}
	r.src = ruleText(r.lhs, r.pat)
	raw.rules = append(raw.rules, r)
	return p.endLine()
}

func (p *parser) parsePattern(raw *rawGrammar) (*PatNode, error) {
	t := p.next()
	if t.kind != tIdent {
		return nil, p.errf(t.line, "expected pattern, got %q", t.text)
	}
	op, isOp := raw.opIDs[t.text]
	n := raw.newPatNode(t.text, isOp)
	if !isOp {
		return n, nil
	}
	arity := raw.terms[op].Arity
	raw.opNodes++
	raw.opKids += arity
	// Only operators of arity > 0 take argument lists; after a leaf
	// operator a '(' belongs to the cost specification.
	if q := p.peek(); arity > 0 && q.kind == tPunct && q.text == "(" {
		p.next()
		n.Kids = raw.newKids(arity)
		for {
			kid, err := p.parsePattern(raw)
			if err != nil {
				return nil, err
			}
			n.Kids = append(n.Kids, kid)
			q := p.next()
			if q.kind == tPunct && q.text == "," {
				continue
			}
			if q.kind == tPunct && q.text == ")" {
				break
			}
			return nil, p.errf(q.line, "expected ',' or ')' in pattern, got %q", q.text)
		}
	}
	if arity != len(n.Kids) {
		return nil, p.errf(t.line, "operator %s has arity %d but pattern gives %d children",
			t.text, arity, len(n.Kids))
	}
	return n, nil
}
