package grammar

import (
	"fmt"
	"strconv"
)

// finish converts the parsed raw grammar into a validated, normal-form
// Grammar: it assigns rule numbers, introduces helper nonterminals for
// multi-node patterns, builds lookup indexes, and validates the result.
//
// Everything is sized before it is filled: the rules (one per operator
// node, plus the chain rules) and their kid nonterminals, which share one
// backing array. The operator and nonterminal name maps built on the way
// become the grammar's name indexes.
func (raw *rawGrammar) finish() (*Grammar, error) {
	g := &Grammar{Name: raw.name, Ops: raw.terms, opsByName: raw.opIDs}

	// Collect author-written nonterminals: rule left-hand sides first (in
	// order of appearance), then pattern leaves that are not terms.
	ntID := map[string]NT{}
	g.ntsByName = ntID
	addNT := func(name string, helper bool) NT {
		if id, ok := ntID[name]; ok {
			return id
		}
		id := NT(len(g.Nonterms))
		g.Nonterms = append(g.Nonterms, Nonterm{Name: name, ID: id, Helper: helper})
		ntID[name] = id
		return id
	}
	for _, r := range raw.rules {
		if _, isOp := raw.opIDs[r.lhs]; isOp {
			return nil, fmt.Errorf("grammar:%d: rule left-hand side %q is an operator", r.line, r.lhs)
		}
		addNT(r.lhs, false)
	}
	var collectLeaves func(p *PatNode) error
	var collectErr error
	collectLeaves = func(p *PatNode) error {
		if !p.IsOp {
			addNT(p.Name, false)
			return nil
		}
		for _, k := range p.Kids {
			if err := collectLeaves(k); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range raw.rules {
		if err := collectLeaves(r.pat); err != nil {
			collectErr = err
		}
	}
	if collectErr != nil {
		return nil, collectErr
	}

	// Assign rule numbers: explicit ones first, then fill unnumbered rules
	// after the maximum explicit number.
	maxID := 0
	seen := map[int]int{} // external id -> line
	for _, r := range raw.rules {
		if r.id >= 0 {
			if prev, dup := seen[r.id]; dup {
				return nil, fmt.Errorf("grammar:%d: rule number %d already used on line %d", r.line, r.id, prev)
			}
			seen[r.id] = r.line
			if r.id > maxID {
				maxID = r.id
			}
		}
	}
	nextID := maxID
	for i := range raw.rules {
		if raw.rules[i].id < 0 {
			nextID++
			raw.rules[i].id = nextID
		}
	}

	// Normalize: split multi-node patterns bottom-up into helper rules,
	// one rule per operator node.
	chains := 0
	for _, r := range raw.rules {
		if !r.pat.IsOp {
			chains++
		}
	}
	g.Rules = make([]Rule, 0, chains+raw.opNodes)
	kidNTs := make([]NT, raw.opKids)
	newKids := func(n int) []NT {
		kids := kidNTs[:n:n]
		kidNTs = kidNTs[n:]
		return kids
	}
	for _, r := range raw.rules {
		lhs := ntID[r.lhs]
		if !r.pat.IsOp {
			// Chain rule.
			rhs := ntID[r.pat.Name]
			if rhs == lhs {
				return nil, fmt.Errorf("grammar:%d: chain rule %s derives itself", r.line, r.src)
			}
			if r.dyn != "" {
				return nil, fmt.Errorf("grammar:%d: dynamic costs on chain rules are not supported (rule %s)", r.line, r.src)
			}
			g.Rules = append(g.Rules, Rule{
				ID: r.id, LHS: lhs, IsChain: true, ChainRHS: rhs,
				Cost: r.cost, Template: r.template, Src: r.src,
			})
			continue
		}
		part := 0
		nParts := countOpNodes(r.pat)
		partName := func() string {
			if nParts == 1 {
				return ""
			}
			part++
			return partLetter(part)
		}
		var lower func(p *PatNode) NT
		lower = func(p *PatNode) NT {
			if !p.IsOp {
				return ntID[p.Name]
			}
			kids := newKids(len(p.Kids))
			for i, k := range p.Kids {
				kids[i] = lower(k)
			}
			pn := partName()
			helper := addNT(r.lhs+"."+strconv.Itoa(r.id)+pn, true)
			g.Rules = append(g.Rules, Rule{
				ID: r.id, Part: pn, LHS: helper, Op: raw.opIDs[p.Name], Kids: kids,
				Src: ruleText(g.Nonterms[helper].Name, p),
			})
			return helper
		}
		kids := newKids(len(r.pat.Kids))
		for i, k := range r.pat.Kids {
			kids[i] = lower(k)
		}
		g.Rules = append(g.Rules, Rule{
			ID: r.id, Part: partName(), LHS: lhs, Op: raw.opIDs[r.pat.Name], Kids: kids,
			Cost: r.cost, DynCost: r.dyn, Template: r.template, Src: r.src,
		})
	}

	// Start nonterminal.
	if raw.start != "" {
		id, ok := ntID[raw.start]
		if !ok {
			return nil, fmt.Errorf("grammar: %%start nonterminal %q has no rules", raw.start)
		}
		g.Start = id
	} else if len(g.Nonterms) > 0 {
		g.Start = 0
	} else {
		return nil, fmt.Errorf("grammar: no rules")
	}

	g.buildIndexes()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// countOpNodes counts operator nodes in a pattern (1 for normal-form base
// rules; >1 for patterns that need splitting).
func countOpNodes(p *PatNode) int {
	if !p.IsOp {
		return 0
	}
	n := 1
	for _, k := range p.Kids {
		n += countOpNodes(k)
	}
	return n
}

// partLetter names the part-th (1-based) rule split from one pattern:
// "a", "b", ...
func partLetter(part int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	if part <= len(letters) {
		return letters[part-1 : part]
	}
	return string(rune('a' + part - 1))
}

// Validate checks structural invariants of a normal-form grammar:
// every nonterminal has at least one rule deriving it, chain rules form no
// zero-cost cycle that would make closure ambiguous about optimality
// (zero-cost cycles are allowed by the math but flagged because they are
// always author errors), kid arities match, and rule ids are consistent.
func (g *Grammar) Validate() error {
	derivable := make([]bool, len(g.Nonterms))
	used := make([]bool, len(g.Nonterms))
	used[g.Start] = true
	for i := range g.Rules {
		r := &g.Rules[i]
		derivable[r.LHS] = true
		if r.IsChain {
			if r.ChainRHS < 0 || int(r.ChainRHS) >= len(g.Nonterms) {
				return fmt.Errorf("grammar %s: rule %s: bad chain target", g.Name, g.RuleName(i))
			}
			used[r.ChainRHS] = true
			continue
		}
		if r.Op < 0 || int(r.Op) >= len(g.Ops) {
			return fmt.Errorf("grammar %s: rule %s: bad operator", g.Name, g.RuleName(i))
		}
		if len(r.Kids) != g.Ops[r.Op].Arity {
			return fmt.Errorf("grammar %s: rule %s: operator %s wants %d kids, rule has %d",
				g.Name, g.RuleName(i), g.Ops[r.Op].Name, g.Ops[r.Op].Arity, len(r.Kids))
		}
		for _, k := range r.Kids {
			used[k] = true
		}
	}
	for nt := range g.Nonterms {
		if used[nt] && !derivable[nt] {
			return fmt.Errorf("grammar %s: nonterminal %q is used but has no rules",
				g.Name, g.Nonterms[nt].Name)
		}
	}
	// Detect zero-cost chain cycles with DFS over the chain graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.Nonterms))
	var visit func(nt NT) error
	visit = func(nt NT) error {
		color[nt] = gray
		for i := range g.Rules {
			r := &g.Rules[i]
			if !r.IsChain || r.LHS != nt || r.Cost != 0 {
				continue
			}
			switch color[r.ChainRHS] {
			case gray:
				return fmt.Errorf("grammar %s: zero-cost chain-rule cycle through %q",
					g.Name, g.Nonterms[nt].Name)
			case white:
				if err := visit(r.ChainRHS); err != nil {
					return err
				}
			}
		}
		color[nt] = black
		return nil
	}
	for nt := range g.Nonterms {
		if color[nt] == white {
			if err := visit(NT(nt)); err != nil {
				return err
			}
		}
	}
	return nil
}
