package repro

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// ErrUnknownMachine is the typed error Registry.Get fails with for names
// that were never registered — distinct from a registered machine whose
// construction failed, so front ends can answer "not found" vs "server
// fault" correctly. Match with errors.Is.
var ErrUnknownMachine = errors.New("repro: machine not registered")

// ErrNotEvictable is the typed error Registry.Evict fails with for
// entries registered via AddSelector: the registry did not construct
// their selector and cannot reconstruct it after dropping it. Match with
// errors.Is.
var ErrNotEvictable = errors.New("repro: machine registered via AddSelector cannot be evicted")

// ErrNotSwappable is the typed error Registry.Swap fails with for entries
// registered via AddSelector: the registry holds no recipe to rebuild
// them from. SwapMachine, which brings its own machine, still works for
// such names. Match with errors.Is.
var ErrNotSwappable = errors.New("repro: machine registered via AddSelector cannot be re-built by Swap")

// ErrSwapInProgress is the typed error Swap and Evict fail with while
// another swap of the same machine is mid-cutover: the machine's entry is
// about to be replaced, so a second swap (or an eviction) would race the
// cutover. Match with errors.Is; cmd/iselserver surfaces it as HTTP 409.
var ErrSwapInProgress = errors.New("repro: swap already in progress for this machine")

// Registry holds named, lazily-constructed, individually-warmed selectors
// for several machine descriptions — the multi-machine serving substrate
// behind internal/server and cmd/iselserver's /compile?machine=x
// dispatch. Each entry is registered cheaply (no grammar loading, no
// engine construction) and materialized exactly once, on first Get; from
// then on every caller shares the one warm selector, so each machine's
// automaton amortizes over all of its traffic independently.
//
// With an automaton directory configured (SetAutomatonDir), entries of
// persistence-capable kinds restore their saved tables when they are
// constructed and SaveAll writes the current tables back — warm starts
// across process restarts, one file per machine.
//
// Entries can also be dropped again: Evict resets one machine to
// unconstructed (its next Get rebuilds the selector from scratch — the
// way a MaxStates-capped automaton is reset without a restart), and
// SetMaxTableBytes arms a byte budget so cold machines are evicted
// automatically as hot ones construct.
//
// Table sets are versioned: every construction of a machine's selector is
// a new version (MachineStatus.Version), and Swap/SwapMachine replace a
// serving version with a freshly built one with zero downtime — the new
// version is constructed warm-ready beside the old, new Acquires route to
// it the instant it is published, and the old version is retired only
// when its last lease is released (in-flight and queued jobs drain on the
// tables they resolved). A failed swap leaves the old version serving.
//
// Add/AddMachine/SetAutomatonDir configure the registry and must complete
// before it is shared; Get, Acquire, Warm, Names, DefaultName, Status,
// Evict, Swap, SwapMachine, Ready and SaveAll are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	entries  map[string]*regEntry
	order    []string // registration order; order[0] is the default
	dir      string   // automaton persistence directory ("" = disabled)
	maxBytes int64    // byte budget on resident tables (0 = unlimited)
	clock    atomic.Int64
	// draining holds replaced or evicted versions that still have live
	// leases: their tables stay resident (and counted against the byte
	// budget) until the last lease releases, but they are never eviction
	// victims — evicting the version that in-flight jobs are draining on
	// would defeat the swap's zero-downtime promise.
	draining map[string][]*regEntry
	// swapping marks machines with a swap mid-cutover; Evict and a second
	// Swap of the same machine refuse with ErrSwapInProgress while set.
	swapping map[string]bool
	logf     func(format string, args ...any)
}

// regEntry is one registered machine: a lazy constructor plus its
// materialized result. once guards construction so concurrent Gets of a
// cold entry build one selector. Eviction and swap never mutate an entry
// — they replace it with a fresh one — so a Get that raced the
// replacement simply finishes against the old version.
type regEntry struct {
	name string
	kind Kind
	opt  Options
	load func() (*Machine, error)
	// version is the table-set generation under this name: 1 for the
	// entry registered first, +1 for every replacement (swap, eviction,
	// or byte-budget reset). MachineStatus and /stats report it so
	// operators can watch a cutover land.
	version int
	// expectWarm marks machines a front end promised would be serving
	// warm (boot-preloaded machines): Ready reports not-ready until they
	// are constructed without error. Carried across replacements.
	expectWarm bool

	once sync.Once
	done atomic.Bool // set after construct completes; gates racy reads in Status
	m    *Machine
	sel  *Selector
	err  error
	// lastUse orders entries for LRU eviction: the registry clock value of
	// the entry's most recent Get.
	lastUse atomic.Int64
	// refs counts live leases (Acquire minus Release); retired is set when
	// the entry has been replaced (swap or eviction). A retired entry
	// whose refs reach zero is fully retired: removed from the draining
	// set, its tables no longer counted as resident.
	refs    atomic.Int64
	retired atomic.Bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:  map[string]*regEntry{},
		draining: map[string][]*regEntry{},
		swapping: map[string]bool{},
		logf:     log.Printf,
	}
}

// SetLogger routes the registry's operational messages (file quarantines,
// swap fallbacks) to logf instead of the standard logger. Set it before
// the registry is shared; nil silences the messages.
func (r *Registry) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r.logf = logf
}

// SetAutomatonDir enables automaton persistence: on first construction an
// entry whose selector supports persistence loads dir/<name>.automaton if
// it exists, and SaveAll writes every constructed, persistence-capable
// selector back there. Set it before the first Get.
func (r *Registry) SetAutomatonDir(dir string) { r.dir = dir }

// Add registers the built-in machine description name (see Machines) to
// be served with the given engine kind and options. Construction —
// loading the grammar, building the engine, restoring saved tables — is
// deferred until the first Get. The first machine added is the registry's
// default.
func (r *Registry) Add(name string, kind Kind, opt Options) error {
	return r.add(&regEntry{
		name: name, kind: kind, opt: opt,
		load: func() (*Machine, error) { return LoadMachine(name) },
	})
}

// AddMachine registers an already-built machine (NewMachine grammars,
// FixedMachine variants) under m.Name. The selector is still constructed
// lazily on first Get.
func (r *Registry) AddMachine(m *Machine, kind Kind, opt Options) error {
	return r.add(&regEntry{
		name: m.Name, kind: kind, opt: opt,
		load: func() (*Machine, error) { return m, nil },
	})
}

// AddSelector registers an already-constructed selector under its
// machine's name — the adapter for harnesses that build a selector by
// hand (warmed, custom-configured) and then serve it. The entry is born
// constructed; the automaton directory does not apply to it on load
// (SaveAll still persists it when capable).
func (r *Registry) AddSelector(sel *Selector) error {
	e := &regEntry{
		name: sel.Machine().Name, kind: sel.Kind(), m: sel.Machine(), sel: sel,
	}
	e.once.Do(func() {}) // consume: Get must never re-construct this entry
	e.done.Store(true)
	return r.add(e)
}

func (r *Registry) add(e *regEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("repro: machine %q registered twice", e.name)
	}
	e.version = 1
	r.entries[e.name] = e
	r.order = append(r.order, e.name)
	return nil
}

// ExpectWarm marks name as a machine the deployment promised would serve
// warm (a boot-preloaded machine): Ready reports not-ready until it is
// constructed without a sticky error. The mark survives swaps and
// evictions of the machine.
func (r *Registry) ExpectWarm(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q (have %v)", ErrUnknownMachine, name, r.names())
	}
	e.expectWarm = true
	return nil
}

// lookup resolves name (the default machine when empty) to its current
// entry, under the registry lock.
func (r *Registry) lookup(name string) (*regEntry, string, error) {
	r.mu.Lock()
	if name == "" && len(r.order) > 0 {
		name = r.order[0]
	}
	e, ok := r.entries[name]
	dir := r.dir
	r.mu.Unlock()
	if !ok {
		return nil, dir, fmt.Errorf("%w: %q (have %v)", ErrUnknownMachine, name, r.names())
	}
	return e, dir, nil
}

// materialize constructs e if it is still cold and applies the byte
// budget after a fresh construction.
func (r *Registry) materialize(e *regEntry, dir string) {
	e.lastUse.Store(r.clock.Add(1))
	constructed := false
	e.once.Do(func() {
		e.construct(dir, r.logf)
		e.done.Store(true)
		constructed = true
	})
	if constructed && e.err == nil {
		r.enforceBudget(e)
	}
}

// Get returns the machine and shared selector registered under name,
// constructing them on first use (and restoring the saved automaton when
// an automaton directory is configured). name == "" resolves to the
// default (first-registered) machine. Construction failures are sticky:
// every Get of a broken entry returns the same error.
//
// Get does not track the caller: a selector obtained this way stays valid
// for as long as the caller holds it (eviction and swap never break
// in-flight holders), but the registry cannot tell when the caller is
// done with it. Servers that drain versions across swaps use Acquire.
func (r *Registry) Get(name string) (*Machine, *Selector, error) {
	e, dir, err := r.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	r.materialize(e, dir)
	return e.m, e.sel, e.err
}

// Lease is one tracked acquisition of a machine's current table-set
// version: the selector plus the version it belongs to. Release it when
// the work that resolved it completes — a version replaced by Swap stays
// resident exactly until its last lease is released.
type Lease struct {
	Machine  *Machine
	Selector *Selector
	// Version is the table-set generation this lease resolved.
	Version int

	r        *Registry
	e        *regEntry
	released atomic.Bool
}

// Release returns the lease. It is idempotent and safe to call
// concurrently; a nil lease is a no-op.
func (l *Lease) Release() {
	if l == nil || !l.released.CompareAndSwap(false, true) {
		return
	}
	if l.e.refs.Add(-1) == 0 && l.e.retired.Load() {
		l.r.fullyRetire(l.e)
	}
}

// Acquire is Get with version tracking: it resolves name's current
// version, counts the caller as in-flight on it, and returns a Lease the
// caller must Release when done. internal/server holds one lease per job,
// which is what lets Swap retire an old version the moment its last
// queued or in-flight job resolves.
func (r *Registry) Acquire(name string) (*Lease, error) {
	r.mu.Lock()
	if name == "" && len(r.order) > 0 {
		name = r.order[0]
	}
	e, ok := r.entries[name]
	dir := r.dir
	if ok {
		// Count the ref inside the lock so a concurrent Swap publishing a
		// replacement sees this caller and drains the version instead of
		// retiring it instantly.
		e.refs.Add(1)
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownMachine, name, r.names())
	}
	l := &Lease{r: r, e: e}
	r.materialize(e, dir)
	if e.err != nil {
		l.Release()
		return nil, e.err
	}
	l.Machine, l.Selector, l.Version = e.m, e.sel, e.version
	return l, nil
}

// fullyRetire removes a retired, lease-free entry from the draining set,
// dropping its tables from the resident-byte accounting.
func (r *Registry) fullyRetire(e *regEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.refs.Load() != 0 {
		return // a racing Acquire revived it; its Release will come back
	}
	ds := r.draining[e.name]
	for i, d := range ds {
		if d == e {
			r.draining[e.name] = append(ds[:i], ds[i+1:]...)
			break
		}
	}
	if len(r.draining[e.name]) == 0 {
		delete(r.draining, e.name)
	}
}

// Swap rebuilds name's table set from its registered recipe and cuts
// traffic over to it with zero downtime: the new version is constructed
// fully warm-ready beside the old one (re-reading any preload blob or
// persisted automaton from disk, so a re-deployed grammar artifact is
// picked up), then published atomically — Acquire and Get return the new
// version from that instant — while the old version keeps serving every
// job that already resolved it and is retired when its last lease
// releases.
//
// For persistence-capable engines serving the same grammar, the live
// automaton is snapshotted and restored into the new version before the
// cutover, so post-swap traffic misses only on states the old version had
// never seen (warmth continuity). A snapshot that does not fit the new
// version's grammar (a real grammar change) is discarded and the new
// version starts from its own artifacts.
//
// A failed construction leaves the old version serving and returns the
// error: a bad deployment never takes the machine down. Concurrent swaps
// of one machine conflict: the second fails with ErrSwapInProgress.
func (r *Registry) Swap(name string) error {
	return r.swap(name, nil)
}

// SwapMachine is Swap with a replacement recipe: the machine m (served
// under m.Name), engine kind and options replace the entry's registered
// ones — the lever for cutovers that change the grammar, the engine kind
// (a re-scanned preload blob electing hybrid over static), or the
// options. The cutover semantics are exactly Swap's.
func (r *Registry) SwapMachine(m *Machine, kind Kind, opt Options) error {
	return r.swap(m.Name, &regEntry{
		name: m.Name, kind: kind, opt: opt,
		load: func() (*Machine, error) { return m, nil },
	})
}

func (r *Registry) swap(name string, ne *regEntry) error {
	r.mu.Lock()
	if name == "" && len(r.order) > 0 {
		name = r.order[0]
	}
	old, ok := r.entries[name]
	if !ok {
		err := fmt.Errorf("%w: %q (have %v)", ErrUnknownMachine, name, r.names())
		r.mu.Unlock()
		return err
	}
	if old.load == nil && ne == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotSwappable, name)
	}
	if r.swapping[name] {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSwapInProgress, name)
	}
	r.swapping[name] = true
	dir := r.dir
	if ne == nil {
		ne = &regEntry{name: name, kind: old.kind, opt: old.opt, load: old.load}
	}
	ne.version = old.version + 1
	ne.expectWarm = old.expectWarm
	ne.lastUse.Store(old.lastUse.Load())
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.swapping, name)
		r.mu.Unlock()
	}()

	// Snapshot the old version's live automaton for warmth continuity.
	// The snapshot is taken while the old version still serves — its
	// Save locks only the construct slow path, warm traffic is unharmed.
	var warm []byte
	if old.done.Load() && old.sel != nil && old.sel.SupportsPersistence() {
		var buf bytes.Buffer
		if err := old.sel.SaveAutomaton(&buf); err == nil {
			warm = buf.Bytes()
		}
	}

	// Build the new version fully before touching the serving entry: a
	// construction failure must leave the old version serving untouched.
	ne.construct(dir, r.logf)
	if ne.err == nil && len(warm) > 0 && ne.sel.SupportsPersistence() {
		if err := ne.warmFrom(warm); err != nil {
			r.logf("repro: swap of machine %q: old version's warmth does not fit the new grammar (%v); the new version starts from its own tables", name, err)
		}
	}
	ne.once.Do(func() {}) // consume: the entry is already constructed
	ne.done.Store(true)
	if ne.err != nil {
		return fmt.Errorf("repro: swap of machine %q failed; the old version (v%d) keeps serving: %w", name, old.version, ne.err)
	}

	// Atomic cutover: from here every Acquire and Get resolves the new
	// version. The old version drains — it stays resident for its live
	// leases and retires when the last one releases.
	r.mu.Lock()
	r.entries[name] = ne
	r.retireLocked(old)
	r.mu.Unlock()
	r.enforceBudget(ne)
	return nil
}

// warmFrom restores a live-automaton snapshot into the entry's freshly
// constructed selector. A selector that already restored tables (from the
// automaton dir) cannot load again — the snapshot, taken from the live
// old version, supersedes the file, so the selector is rebuilt fresh and
// loaded from the snapshot alone. Any failure rebuilds the selector cold:
// a bad snapshot must not poison the new version.
func (e *regEntry) warmFrom(warm []byte) error {
	fresh, err := e.m.NewSelector(e.kind, e.opt)
	if err != nil {
		return err
	}
	if err := fresh.LoadAutomaton(bytes.NewReader(warm)); err != nil {
		return err
	}
	e.sel = fresh
	return nil
}

// retireLocked marks a replaced entry retired and, when leases are still
// out on it, parks it in the draining set. Caller holds r.mu.
func (r *Registry) retireLocked(old *regEntry) {
	if !old.done.Load() || old.sel == nil {
		return // never constructed: nothing resident to drain
	}
	old.retired.Store(true)
	if old.refs.Load() > 0 {
		r.draining[old.name] = append(r.draining[old.name], old)
	}
}

// SetMaxTableBytes arms the byte budget: whenever a construction or swap
// raises the total resident table bytes — every constructed machine's
// MemoryBytes plus every still-draining replaced version's — above n, the
// least recently used reconstructible machines are evicted (reset to
// unconstructed; the next Get rebuilds them) until the total fits. Zero
// disables the budget. Entries registered via AddSelector count toward
// the total but are never chosen as victims (they cannot be
// reconstructed).
//
// Versions draining after a swap are counted (their tables are resident)
// but never evicted: the budget squeezes cold machines out instead, so a
// swap that temporarily holds two versions of a hot machine stays within
// budget without breaking the jobs draining on the old one. If nothing
// evictable remains, the total may exceed n until drains complete —
// the budget sheds what it safely can, it never corrupts serving state.
func (r *Registry) SetMaxTableBytes(n int) {
	r.mu.Lock()
	r.maxBytes = int64(n)
	r.mu.Unlock()
	r.enforceBudget(nil)
}

// MaxTableBytes reports the armed byte budget (0 = unlimited).
func (r *Registry) MaxTableBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.maxBytes)
}

// ResidentBytes reports the total table bytes currently resident: every
// constructed machine plus every replaced version still draining. This is
// the figure SetMaxTableBytes bounds.
func (r *Registry) ResidentBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.residentBytesLocked()
}

func (r *Registry) residentBytesLocked() int {
	total := 0
	for _, name := range r.order {
		if e := r.entries[name]; e.done.Load() && e.sel != nil {
			total += e.sel.MemoryBytes()
		}
	}
	for _, ds := range r.draining {
		for _, e := range ds {
			total += e.sel.MemoryBytes()
		}
	}
	return total
}

// Evict resets name's entry to unconstructed, dropping its selector: the
// next Get reconstructs from scratch (reloading any persisted automaton).
// This is the reset lever for a MaxStates-capped automaton and the manual
// form of byte-budget eviction. Entries registered via AddSelector fail
// with ErrNotEvictable; a machine mid-swap fails with ErrSwapInProgress
// (the swap is already replacing it); evicting a never-constructed (or
// sticky-failed) entry simply clears it.
//
// Evict deliberately discards state rather than preserving it — that is
// its purpose; call SaveAll beforehand to keep warmth. With an automaton
// directory configured it also removes the machine's persisted file, so
// reconstruction truly starts from scratch instead of restoring the very
// (possibly capped) tables the eviction meant to shed. (Byte-budget
// eviction is the opposite: it persists capable automata before dropping
// them, because there the goal is bounding memory, not resetting.)
//
// In-flight compilations that already resolved the old selector finish on
// it unharmed; they just no longer share tables with future traffic.
func (r *Registry) Evict(name string) error {
	r.mu.Lock()
	if name == "" && len(r.order) > 0 {
		name = r.order[0]
	}
	e, ok := r.entries[name]
	if !ok {
		err := fmt.Errorf("%w: %q (have %v)", ErrUnknownMachine, name, r.names())
		r.mu.Unlock()
		return err
	}
	if e.load == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotEvictable, name)
	}
	if r.swapping[name] {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q (evict refused mid-cutover)", ErrSwapInProgress, name)
	}
	r.entries[name] = r.resetEntry(e)
	r.retireLocked(e)
	dir := r.dir
	r.mu.Unlock()
	if dir != "" {
		if err := os.Remove(automatonPath(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("repro: machine %q evicted, but removing its persisted automaton failed: %w", name, err)
		}
	}
	return nil
}

// resetEntry returns a fresh unconstructed replacement for e (the next
// version under e's name). Caller holds r.mu.
func (r *Registry) resetEntry(e *regEntry) *regEntry {
	ne := &regEntry{
		name: e.name, kind: e.kind, opt: e.opt, load: e.load,
		version: e.version + 1, expectWarm: e.expectWarm,
	}
	ne.lastUse.Store(e.lastUse.Load())
	return ne
}

// enforceBudget evicts least-recently-used constructed entries until at
// most maxBytes table bytes are resident. keep (the entry just
// constructed or swapped in) is never chosen; neither are draining
// versions, machines mid-swap, or AddSelector entries. With an
// automaton directory configured, a persistence-capable victim's tables
// are saved (best effort), so budget pressure never silently discards
// warmth the next construction could restore — but the disk writes
// happen after the registry lock is released: a save of a large
// automaton must not stall every machine's job dispatch and /stats
// behind r.mu.
func (r *Registry) enforceBudget(keep *regEntry) {
	var evicted []*regEntry
	r.mu.Lock()
	dir := r.dir
	for r.maxBytes > 0 && int64(r.residentBytesLocked()) > r.maxBytes {
		var victim *regEntry
		for _, name := range r.order {
			e := r.entries[name]
			if !e.done.Load() || e.sel == nil || e == keep || e.load == nil || r.swapping[name] {
				continue // cold, protected newcomer, not reconstructible, or mid-swap
			}
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		r.entries[victim.name] = r.resetEntry(victim)
		r.retireLocked(victim)
		evicted = append(evicted, victim)
	}
	r.mu.Unlock()
	if dir == "" {
		return
	}
	for _, e := range evicted {
		if !e.sel.SupportsPersistence() {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err == nil {
			// Best effort: an eviction that cannot save still evicts — the
			// budget is a resource bound, not a durability promise. The old
			// selector is exclusively ours to snapshot here; racing jobs
			// that still hold it only read warm tables.
			saveAutomatonFile(e.sel, automatonPath(dir, e.name))
		}
	}
}

// construct materializes one entry: machine, selector, and — when dir is
// set and a saved automaton exists — the restored tables. LoadAutomaton
// runs here, before the selector is ever shared, which is exactly the
// serialization its contract requires.
//
// Corrupt or mismatched artifacts do not fail the machine: a preload blob
// the selector cannot load (Options.PreloadPath) and a persisted
// automaton file that fails to restore are quarantined — renamed to
// <file>.bad and logged — and construction falls back to cold in-process
// tables. A machine is only sticky-broken by faults cold construction
// cannot route around (an unknown grammar, an invalid option set).
func (e *regEntry) construct(dir string, logf func(string, ...any)) {
	m, err := e.load()
	if err != nil {
		e.err = fmt.Errorf("repro: machine %q: %w", e.name, err)
		return
	}
	sel, err := e.buildSelector(m, logf)
	if err != nil {
		e.err = fmt.Errorf("repro: machine %q: %w", e.name, err)
		return
	}
	if dir != "" && sel.SupportsPersistence() {
		path := automatonPath(dir, e.name)
		f, err := os.Open(path)
		switch {
		case err == nil:
			loadErr := sel.LoadAutomaton(f)
			f.Close()
			if loadErr != nil {
				// The persisted file is corrupt or belongs to another
				// grammar revision: quarantine it and serve cold rather
				// than sticky-failing the machine. The selector is rebuilt
				// because a partial load may have poisoned it.
				quarantine(path, loadErr, logf)
				sel, err = e.buildSelector(m, logf)
				if err != nil {
					e.err = fmt.Errorf("repro: machine %q: %w", e.name, err)
					return
				}
			}
		case !os.IsNotExist(err):
			e.err = fmt.Errorf("repro: machine %q: %w", e.name, err)
			return
		}
	}
	e.m, e.sel = m, sel
}

// buildSelector constructs the entry's selector, recovering from a bad
// preload blob: if construction with Options.PreloadPath fails but the
// same options succeed without it (in-process table compilation), the
// blob was the problem — it is quarantined and the cold selector serves.
func (e *regEntry) buildSelector(m *Machine, logf func(string, ...any)) (*Selector, error) {
	sel, err := m.NewSelector(e.kind, e.opt)
	if err == nil || e.opt.PreloadPath == "" {
		return sel, err
	}
	opt := e.opt
	opt.PreloadPath = ""
	cold, coldErr := m.NewSelector(e.kind, opt)
	if coldErr != nil {
		// The blob was not (only) the problem; report the original fault.
		return nil, err
	}
	quarantine(e.opt.PreloadPath, err, logf)
	return cold, nil
}

// quarantine renames a bad artifact to <path>.bad so the next
// construction does not trip over it again, and logs what happened. A
// failed rename is logged too — quarantine is best effort.
func quarantine(path string, cause error, logf func(string, ...any)) {
	if err := os.Rename(path, path+".bad"); err != nil {
		logf("repro: quarantining %s failed (%v) after load error: %v", path, err, cause)
		return
	}
	logf("repro: quarantined %s -> %s.bad (cold construction takes over): %v", path, path, cause)
}

// Warm forces construction of name now (first traffic would otherwise pay
// for it): boot-time warm-up for servers that load persisted automata.
func (r *Registry) Warm(name string) error {
	_, _, err := r.Get(name)
	return err
}

// Names lists the registered machine names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.names()
}

func (r *Registry) names() []string {
	return append([]string(nil), r.order...)
}

// DefaultName returns the first-registered machine name ("" if empty):
// the machine requests without an explicit ?machine= land on.
func (r *Registry) DefaultName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return ""
	}
	return r.order[0]
}

// Ready reports whether the registry is fit to receive routed traffic:
// no machine is mid-swap, and every machine marked ExpectWarm (the
// boot-preloaded set) is constructed without a sticky error. A non-nil
// error names the first condition that fails — the body of a load
// balancer's 503. Machines that merely have not seen traffic yet do not
// block readiness unless marked.
func (r *Registry) Ready() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		if r.swapping[name] {
			return fmt.Errorf("repro: machine %q is mid-swap", name)
		}
	}
	for _, name := range r.order {
		e := r.entries[name]
		if !e.expectWarm {
			continue
		}
		if !e.done.Load() {
			return fmt.Errorf("repro: machine %q expected warm but not constructed", name)
		}
		if e.err != nil {
			return fmt.Errorf("repro: machine %q expected warm but broken: %v", name, e.err)
		}
	}
	return nil
}

// MachineStatus is one registered machine's serving state: whether its
// selector has been constructed yet and, if so, its automaton warmth.
type MachineStatus struct {
	Machine     string
	Kind        Kind
	Constructed bool
	Err         string // sticky construction error, if any
	Warmth      Snapshot
	// Version is the table-set generation serving this machine (1-based;
	// bumped by every swap and eviction-reconstruction).
	Version int
	// Swapping reports a swap mid-cutover: the next version is being
	// constructed beside this one.
	Swapping bool
	// Draining counts replaced versions still resident because jobs that
	// resolved them have not finished.
	Draining int
	// Fingerprint is the machine's grammar fingerprint (the identity
	// .isel blobs are matched by), once
	// the machine description has been resolved; 0 while cold with a
	// lazy-load recipe. GET /version reports it as the "what exactly is
	// deployed here" answer.
	Fingerprint uint64
}

// Status reports every registered machine in registration order,
// constructed or not — the registry half of the server's GET /stats.
func (r *Registry) Status() []MachineStatus {
	r.mu.Lock()
	entries := make([]*regEntry, 0, len(r.order))
	swapping := make([]bool, 0, len(r.order))
	draining := make([]int, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.entries[name])
		swapping = append(swapping, r.swapping[name])
		draining = append(draining, len(r.draining[name]))
	}
	r.mu.Unlock()
	sts := make([]MachineStatus, 0, len(entries))
	for i, e := range entries {
		st := MachineStatus{
			Machine: e.name, Kind: e.kind,
			Version: e.version, Swapping: swapping[i], Draining: draining[i],
		}
		// done is stored after construct completes, so sel/err reads behind
		// it are race-free; an entry mid-construction just reads as cold.
		if e.done.Load() {
			st.Constructed = e.sel != nil
			if e.m != nil {
				st.Fingerprint = e.m.Grammar.Fingerprint()
			}
			if e.err != nil {
				st.Err = e.err.Error()
			}
			if e.sel != nil {
				st.Warmth = e.sel.Snapshot()
			}
		}
		sts = append(sts, st)
	}
	return sts
}

// SaveAll persists every constructed, persistence-capable selector to the
// configured automaton directory (one file per machine, written via a
// temp file + rename so a crash mid-save never corrupts a good table).
// It is a no-op when no automaton directory is set. The first error is
// returned, but every entry is attempted.
func (r *Registry) SaveAll() error {
	r.mu.Lock()
	dir := r.dir
	entries := make([]*regEntry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.entries[name])
	}
	r.mu.Unlock()
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		if !e.done.Load() || e.sel == nil || !e.sel.SupportsPersistence() {
			continue
		}
		if err := saveAutomatonFile(e.sel, automatonPath(dir, e.name)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repro: machine %q: %w", e.name, err)
		}
	}
	return firstErr
}

func saveAutomatonFile(sel *Selector, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := sel.SaveAutomaton(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// automatonPath is the per-machine persistence file: dir/<name>.automaton.
func automatonPath(dir, name string) string {
	return filepath.Join(dir, name+".automaton")
}

// Snapshots returns the warmth of every constructed machine, keyed by
// name — the sorted, compact form of Status for logs and tests.
func (r *Registry) Snapshots() map[string]Snapshot {
	out := map[string]Snapshot{}
	for _, st := range r.Status() {
		if st.Constructed {
			out[st.Machine] = st.Warmth
		}
	}
	return out
}
