package grammar

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
)

// Stats summarizes a grammar, in the spirit of the grammar-statistics
// tables of the tree-parsing instruction-selection literature.
type Stats struct {
	Name            string
	Operators       int
	Nonterminals    int
	HelperNonterms  int
	SourceRules     int // distinct external rule numbers
	NormalizedRules int // rules after normal-form conversion
	ChainRules      int
	BaseRules       int
	DynamicRules    int
	MaxRulesPerOp   int
	AvgRulesPerOp   float64
}

// ComputeStats derives summary statistics for g.
func (g *Grammar) ComputeStats() Stats {
	s := Stats{
		Name:            g.Name,
		Operators:       len(g.Ops),
		Nonterminals:    len(g.Nonterms),
		NormalizedRules: len(g.Rules),
	}
	srcIDs := map[int]bool{}
	for i := range g.Rules {
		r := &g.Rules[i]
		srcIDs[r.ID] = true
		if r.IsChain {
			s.ChainRules++
		} else {
			s.BaseRules++
		}
		if r.IsDynamic() {
			s.DynamicRules++
		}
	}
	s.SourceRules = len(srcIDs)
	for _, nt := range g.Nonterms {
		if nt.Helper {
			s.HelperNonterms++
		}
	}
	total := 0
	for op := range g.Ops {
		n := len(g.baseByOp[op])
		total += n
		if n > s.MaxRulesPerOp {
			s.MaxRulesPerOp = n
		}
	}
	if len(g.Ops) > 0 {
		s.AvgRulesPerOp = float64(total) / float64(len(g.Ops))
	}
	return s
}

// String renders the statistics as a one-line table row.
func (s Stats) String() string {
	return fmt.Sprintf("%-10s ops=%-3d nts=%-3d(+%d helper) rules=%d/%d chain=%d base=%d dyn=%d maxPerOp=%d",
		s.Name, s.Operators, s.Nonterminals, s.HelperNonterms,
		s.SourceRules, s.NormalizedRules, s.ChainRules, s.BaseRules,
		s.DynamicRules, s.MaxRulesPerOp)
}

// Dump renders the whole normal-form grammar, mostly for debugging and
// golden tests.
func (g *Grammar) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%name %s\n%%start %s\n", g.Name, g.NTName(g.Start))
	for i := range g.Rules {
		r := &g.Rules[i]
		if r.IsChain {
			fmt.Fprintf(&b, "%s: %s", g.NTName(r.LHS), g.NTName(r.ChainRHS))
		} else {
			fmt.Fprintf(&b, "%s: %s", g.NTName(r.LHS), g.OpName(r.Op))
			if len(r.Kids) > 0 {
				b.WriteByte('(')
				for j, k := range r.Kids {
					if j > 0 {
						b.WriteString(", ")
					}
					b.WriteString(g.NTName(k))
				}
				b.WriteByte(')')
			}
		}
		fmt.Fprintf(&b, " = %s", g.RuleName(i))
		if r.IsDynamic() {
			fmt.Fprintf(&b, " (dyn %s)", r.DynCost)
		} else {
			fmt.Fprintf(&b, " (%d)", r.Cost)
		}
		if r.Template != "" {
			fmt.Fprintf(&b, " %q", r.Template)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fingerprint identifies g for table compatibility: a hash of its name
// and normal-form dump, the identity every serialized automaton (persisted
// on-demand tables, `.isel` blobs) is checked against. It is computed
// once, on first use, so a grammar must be renamed (as NewMachine in the
// repro package does) before anything asks for it.
func (g *Grammar) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := fnv.New64a()
		io.WriteString(h, g.Name)
		io.WriteString(h, g.Dump())
		g.fp = h.Sum64()
	})
	return g.fp
}
