package freelist

import (
	"sync"
	"testing"
)

func TestGetReusesPutItems(t *testing.T) {
	var l List[int]
	a := l.Get()
	*a = 7
	l.Put(a)
	if b := l.Get(); b != a || *b != 7 {
		t.Fatalf("Get after Put returned %p (%d), want the put item %p", b, *b, a)
	}
	if c := l.Get(); c == a {
		t.Fatal("an empty list returned an item that is in use")
	}
}

func TestNewMakesItems(t *testing.T) {
	made := 0
	l := List[[]byte]{New: func() *[]byte {
		made++
		b := make([]byte, 0, 64)
		return &b
	}}
	x := l.Get()
	if made != 1 || cap(*x) != 64 {
		t.Fatalf("New ran %d times, item cap %d", made, cap(*x))
	}
	l.Put(x)
	l.Get()
	if made != 1 {
		t.Fatalf("New ran %d times for a reused item", made)
	}
}

// TestListHoldsPeakConcurrency: items are never dropped, so a list holds
// as many as were in use at once, and each is handed to one caller at a
// time. Run it with -race.
func TestListHoldsPeakConcurrency(t *testing.T) {
	var l List[int]
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				*x++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := len(l.free); n < 1 || n > workers {
		t.Fatalf("list holds %d items after %d workers, want 1..%d", n, workers, workers)
	}
	sum := 0
	for _, x := range l.free {
		sum += *x
	}
	if sum != workers*1000 {
		t.Fatalf("items were used %d times, want %d", sum, workers*1000)
	}
}

func TestWarmGetPutAllocFree(t *testing.T) {
	var l List[int]
	l.Put(l.Get())
	if a := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); a != 0 {
		t.Fatalf("warm Get+Put allocated %.1f times", a)
	}
}
