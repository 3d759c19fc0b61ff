package repro_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/workload"
)

// closedWhenFreed returns a channel that p's cleanup closes once the
// collector has freed p. A cleanup, unlike a finalizer, neither
// resurrects p nor keeps what p references alive for another cycle, so
// the cleanups of an object and of one it references can both run after
// the same collection.
func closedWhenFreed[T any](p *T) chan struct{} {
	ch := make(chan struct{})
	runtime.AddCleanup(p, func(ch chan struct{}) { close(ch) }, ch)
	return ch
}

// compileAndDrop builds a selector of kind for m, compiles the corpus
// through it, and returns channels the cleanups of the selector and of
// its engine close once the collector has freed them. Nothing else keeps
// either object: the caller holds only the channels.
func compileAndDrop(t *testing.T, m *repro.Machine, kind repro.Kind) (selGone, engGone chan struct{}) {
	t.Helper()
	sel, err := m.NewSelector(kind, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range workload.MustCompileAll(m.Grammar) {
		for _, f := range c.Forests() {
			if _, err := sel.Compile(ctx, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch e := sel.Labeler().(type) {
	case *dp.Labeler:
		engGone = closedWhenFreed(e)
	case *core.Engine:
		engGone = closedWhenFreed(e)
	default:
		t.Fatalf("%s: unexpected engine %T", kind, e)
	}
	return closedWhenFreed(sel), engGone
}

// TestDroppedSelectorDiesAtNextGC: a selector that has compiled the
// corpus and is then dropped is freed, with its engine, by the very next
// collection. Scratch the selector recycles (emitters, labelings, reducer
// and dynamic-cost buffers) lives in the selector itself, so nothing
// outside it, such as the runtime's registry of sync.Pools, keeps a dead
// session's tables reachable for an extra cycle.
func TestDroppedSelectorDiesAtNextGC(t *testing.T) {
	x86, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := x86.FixedMachine()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m    *repro.Machine
		kind repro.Kind
	}{
		{x86, repro.KindDP},
		{x86, repro.KindOnDemand},
		{x86, repro.KindHybrid},
		{fixed, repro.KindStatic},
	} {
		selGone, engGone := compileAndDrop(t, c.m, c.kind)
		runtime.GC()
		deadline := time.Now().Add(time.Second)
		for what, ch := range map[string]chan struct{}{"selector": selGone, "engine": engGone} {
			select {
			case <-ch:
			case <-time.After(time.Until(deadline)):
				t.Errorf("%s %s: the dropped %s was not freed by one GC", c.kind, c.m.Name, what)
			}
		}
	}
}
