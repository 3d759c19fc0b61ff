// Package freelist recycles per-call scratch owned by one long-lived
// object: a selector's emitters, an engine's labelings and construction
// buffers, a reducer's work stacks.
//
// A List is a mutex and a slice. Unlike a sync.Pool it is never trimmed,
// so it holds at most as many items as were ever in use at once (its
// owner's peak concurrency), and it is not registered with the runtime,
// so it dies with its owner: a dropped selector and everything its lists
// hold are freed by the next collection. Take an item once per call,
// never per node.
package freelist

import "sync"

// List is a free list of *T. The zero value is ready to use; New, when
// set, makes the item Get returns from an empty list (new(T) otherwise).
// A List must not be copied after first use.
type List[T any] struct {
	New func() *T

	mu   sync.Mutex
	free []*T
}

// Get takes an item off the list, or makes one when the list is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	if l.New != nil {
		return l.New()
	}
	return new(T)
}

// Put returns x to the list. x must not be used afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
