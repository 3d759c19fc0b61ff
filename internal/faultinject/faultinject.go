// Package faultinject is the fault-injection harness behind the serving
// tier's robustness tests: named injection points compiled permanently
// into a few load-bearing seams (blob deserialization, dynamic cost
// evaluation wrappers) that are inert until a test arms them.
//
// The design constraints, in order:
//
//  1. Disarmed cost must be unmeasurable. Fire's fast path is a single
//     atomic load of a package counter — no map lookup, no lock, no
//     allocation — so the hooks can live on paths adjacent to the warm
//     ones without showing up in the benchmark trajectory.
//  2. Faults are data, not code. A test arms a Point with a Fault value
//     describing what to inject (an error, a panic, a delay, a hang) and
//     when (skip the first After hits, fire at most Count times), then
//     disarms it. Production binaries contain the points but can never
//     trip them: only a test or harness that imports this package and
//     calls Arm can.
//  3. Concurrency-safe by construction: Arm/disarm take a lock, Fire
//     reads under RLock only after the atomic says something is armed,
//     and hit accounting is atomic — the races the harness is used to
//     provoke (cancellation vs cutover, panic mid-drain) must not be
//     races in the harness itself.
//
// Typical use:
//
//	defer faultinject.Arm(faultinject.GenLoad, faultinject.Fault{
//		Err:   errors.New("injected: truncated blob"),
//		Count: 1,
//	})()
//
// Points fire wherever the production code calls Fire (or a harness
// calls it from a wrapper, as the SV swap scenario does for dynamic cost
// functions). New points are one constant plus one Fire call.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site.
type Point string

// The wired-in points. GenLoad fires inside internal/gen.Decode, before
// any blob bytes are parsed — arming it makes every table-blob load
// (Options.PreloadPath at construction and at a swap's re-read) fail,
// truncate-style. Tables computed in-process take no blob and never fire
// it.
// DynCost is fired by harness-side wrappers around grammar dynamic cost
// functions (see internal/bench's swap scenario): arming it injects
// panics or stalls into the middle of a labeling pass.
// ReplicaDeath fires at a replica's compile intake (the HTTP front
// end's submit path): arming it makes the replica fail jobs the way a
// dying process does — the cluster failover tests assert the router
// retries each such failure on the next replica with zero
// client-visible errors. PeerSlow fires in the cluster's peer client
// before every outbound peer call (proxied compile, stats scrape, health
// probe): a Delay fault simulates a slow peer, an Err a partitioned one.
const (
	GenLoad      Point = "gen.load"
	DynCost      Point = "dyn.cost"
	ReplicaDeath Point = "replica.death"
	PeerSlow     Point = "peer.slow"
)

// Fault describes one injected behavior. Exactly the set fields happen,
// in order: Delay (sleep), Hang (block until the channel closes), Panic
// (panic with the value), Err (returned from Fire). A Fault with only
// scheduling fields set is a no-op probe: it counts hits.
type Fault struct {
	// Err is returned by Fire to the hook site (which treats it as the
	// operation's own failure, e.g. a corrupt blob).
	Err error
	// Panic, when non-nil, makes Fire panic with this value — the
	// "grammar-supplied code went wrong" fault.
	Panic any
	// Delay, when > 0, makes Fire sleep first — the slow-cost-fn fault.
	Delay time.Duration
	// Hang, when non-nil, makes Fire block until the channel is closed —
	// the deterministic form of Delay for tests that need to hold a job
	// mid-compile while they do something (cancel it, swap under it).
	Hang <-chan struct{}
	// After skips the first After hits of the point before firing.
	After int
	// Count bounds how many hits fire (0 = every hit once armed).
	Count int
}

type armedFault struct {
	f     Fault
	hits  atomic.Int64
	fired atomic.Int64
}

var (
	// armedCount gates Fire's fast path: zero means nothing is armed
	// anywhere and Fire is one atomic load.
	armedCount atomic.Int64

	mu    sync.RWMutex
	armed = map[Point][]*armedFault{}
)

// Arm installs f at point p and returns its disarm function. Multiple
// faults may be armed at one point; they are consulted in arming order.
// Disarm is idempotent. Tests should defer it immediately.
func Arm(p Point, f Fault) (disarm func()) {
	af := &armedFault{f: f}
	mu.Lock()
	armed[p] = append(armed[p], af)
	mu.Unlock()
	armedCount.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			fs := armed[p]
			for i, x := range fs {
				if x == af {
					armed[p] = append(fs[:i], fs[i+1:]...)
					break
				}
			}
			if len(armed[p]) == 0 {
				delete(armed, p)
			}
			mu.Unlock()
			armedCount.Add(-1)
		})
	}
}

// Reset disarms everything — a test-cleanup backstop.
func Reset() {
	mu.Lock()
	n := 0
	for _, fs := range armed {
		n += len(fs)
	}
	armed = map[Point][]*armedFault{}
	mu.Unlock()
	armedCount.Add(int64(-n))
}

// Fired reports how many times point p actually injected (summed over
// its armed faults) — the assertion lever for "exactly one job failed,
// and it was ours".
func Fired(p Point) int64 {
	mu.RLock()
	defer mu.RUnlock()
	var n int64
	for _, af := range armed[p] {
		n += af.fired.Load()
	}
	return n
}

// Fire is the injection site: production (or wrapper) code calls it and
// applies the returned error as the operation's own failure. With
// nothing armed it is a single atomic load. An armed fault may sleep,
// hang, panic, or return its error, per its Fault.
func Fire(p Point) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return fire(p)
}

func fire(p Point) error {
	mu.RLock()
	fs := armed[p]
	var chosen *armedFault
	for _, af := range fs {
		n := int(af.hits.Add(1))
		if n <= af.f.After {
			continue
		}
		if af.f.Count > 0 && n > af.f.After+af.f.Count {
			continue
		}
		chosen = af
		break
	}
	mu.RUnlock()
	if chosen == nil {
		return nil
	}
	chosen.fired.Add(1)
	f := chosen.f
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Hang != nil {
		<-f.Hang
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	return f.Err
}
