package automaton

import (
	"sync"
	"testing"

	"repro/internal/grammar"
)

// TestTableConcurrentIntern hammers the hash-consing table from many
// goroutines with overlapping vectors: equal vectors must intern to one
// pointer, ids must stay dense and unique, and Len/Get/States must stay
// readable throughout. Run under -race.
func TestTableConcurrentIntern(t *testing.T) {
	g := fixedDemo(t)
	tbl := NewTable(g)
	nt := g.NumNonterms()
	const workers = 8
	const vectors = 64

	results := make([][]*State, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = make([]*State, vectors)
			for v := 0; v < vectors; v++ {
				delta := make([]grammar.Cost, nt)
				rule := make([]int32, nt)
				for i := range delta {
					delta[i] = grammar.Cost(v % 16) // 16 distinct vectors, heavily contended
					rule[i] = int32(v % 16)
				}
				s, _ := tbl.Intern(delta, rule, nil)
				results[w][v] = s
				// Concurrent readers must always see a consistent prefix.
				if got := tbl.Get(s.ID); got != s {
					t.Errorf("Get(%d) returned a different state", s.ID)
					return
				}
				if tbl.Len() < int(s.ID)+1 {
					t.Errorf("Len %d < id %d", tbl.Len(), s.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if tbl.Len() != 16 {
		t.Errorf("table has %d states, want 16", tbl.Len())
	}
	// All workers must agree on the interned pointer per vector class.
	for v := 0; v < vectors; v++ {
		for w := 1; w < workers; w++ {
			if results[w][v] != results[0][v] {
				t.Fatalf("vector %d: workers interned different states", v)
			}
		}
	}
	seen := map[int32]bool{}
	for _, s := range tbl.States() {
		if seen[s.ID] {
			t.Fatalf("duplicate state id %d", s.ID)
		}
		seen[s.ID] = true
	}
}
