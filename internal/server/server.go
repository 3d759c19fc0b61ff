// Package server implements the compilation server the paper's on-demand
// automata are built for: long-lived warm engines multiplexed across many
// concurrent clients.
//
// The economics of on-demand tree-parsing automata (Ertl, Casey, Gregg;
// PLDI 2006) are amortization: every state and transition constructed
// while labeling one compilation unit makes every later unit cheaper, so
// the engine pays off most when many units flow through a single
// long-lived instance. Server is that instance's front end — since the v2
// API, for several instances at once: jobs are dispatched against a
// repro.Registry of named, lazily-constructed, individually-warmed
// selectors, so one process serves several machine descriptions and each
// machine's automaton warms over exactly its own traffic. Clients submit
// forests (or whole lowered units) for a machine and get futures back; a
// bounded work queue feeds one worker pool shared by every machine.
//
// The contract is context-first: Submit takes a context.Context that
// covers the job's whole lifetime. Cancelling it while the job is queued
// resolves the future with ctx.Err() (a context.AfterFunc hook races the
// worker; futures resolve exactly once, first writer wins). Cancelling it
// mid-compile stops the compile at the reducer's cooperative checkpoints
// within a bounded number of nodes. Config.RequestTimeout arms a
// per-request deadline on top of whatever deadline the caller brought.
//
// Work accounting is per client: each job's labeling and reduction events
// are counted into a per-job metrics.Counters via
// Selector.Compile(ctx, f, WithCounters(jm)), then merged into the
// submitting client's counters and the server-global counters with
// Counters.Add. The per-client totals therefore sum exactly to the global
// totals, which the race tests assert. Jobs cancelled before any work are
// counted separately (Stats.Cancelled) and contribute nothing.
//
// Per-job state is recycled throughout: each worker reuses one counter
// sink, and the selector pools labelings, reducer scratch and emitters
// internally (see reduce.LabelingRecycler), so a warm job's only
// allocations are its output — steady-state traffic puts no per-node
// pressure on the GC.
//
// Shutdown is graceful: new submissions are refused, queued and in-flight
// jobs drain, and every future still resolves.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// ErrShutdown is returned by Submit variants after Shutdown has begun.
var ErrShutdown = errors.New("server: shut down")

// ErrQueueFull is returned by Submit variants when Config.ShedOnFull is
// set and the work queue is saturated: the job was shed, not queued. The
// HTTP front end maps it to 429 with a Retry-After hint. Match with
// errors.Is.
var ErrQueueFull = errors.New("server: work queue full")

// Config tunes a Server.
type Config struct {
	// Workers is the worker-pool size (GOMAXPROCS if <= 0). Each worker
	// pulls jobs off the shared queue and compiles on the job's machine's
	// shared selector.
	Workers int
	// QueueDepth bounds the work queue (4*Workers if <= 0). Submit blocks
	// while the queue is full — backpressure, not unbounded buffering —
	// but respects its context: a cancelled submitter stops waiting.
	QueueDepth int
	// RequestTimeout, when > 0, bounds each job's total lifetime (queue
	// wait + compile): Submit derives a per-request deadline from it, and
	// a job that exceeds it resolves its future with
	// context.DeadlineExceeded.
	RequestTimeout time.Duration
	// ShedOnFull turns a saturated queue from backpressure into load
	// shedding: Submit fails fast with ErrQueueFull instead of blocking
	// until a slot frees. The right setting for front ends whose clients
	// can retry (HTTP answers 429 + Retry-After); leave it off for
	// harnesses that want every submission to land eventually.
	ShedOnFull bool
	// SlowlogSize bounds the ring buffer of slowest requests served by
	// GET /debug/slowlog (32 if <= 0).
	SlowlogSize int
}

// Future is the pending result of one submitted forest. It resolves
// exactly once — by the worker that compiles it, or by the job's context
// being cancelled or timing out first, whichever happens first.
type Future struct {
	out      *repro.Output
	err      error
	resolved atomic.Bool
	done     chan struct{}
	// traceEntry is a copy of the job's finished trace, attached before
	// resolve when the submission asked for detail (TraceOptions.Detail:
	// the HTTP ?trace=1 path). The pooled trace itself is recycled.
	traceEntry *telemetry.Entry
}

// Wait blocks until the job completes (or is cancelled) and returns its
// output. For a job whose context was cancelled while queued, err is that
// context's ctx.Err().
func (f *Future) Wait() (*repro.Output, error) {
	<-f.done
	return f.out, f.err
}

// Done returns a channel closed when the future resolves, for select
// loops.
func (f *Future) Done() <-chan struct{} { return f.done }

// TraceEntry returns the job's stage timeline, valid after Wait and
// only for submissions that asked for detail (TraceOptions.Detail);
// nil otherwise. Cancelled-while-queued jobs may resolve before a
// worker sees them, in which case the entry is nil too.
func (f *Future) TraceEntry() *telemetry.Entry {
	<-f.done
	return f.traceEntry
}

// resolve publishes the result exactly once and reports whether this call
// won. The worker and the cancellation watcher race here by design; the
// loser's result is dropped.
func (f *Future) resolve(out *repro.Output, err error) bool {
	if !f.resolved.CompareAndSwap(false, true) {
		return false
	}
	f.publish(out, err)
	return true
}

// publish stores the result and wakes every waiter. Only the caller that
// won the resolved CAS calls it.
func (f *Future) publish(out *repro.Output, err error) {
	f.out, f.err = out, err
	close(f.done)
}

// isResolved reports whether the future has already resolved (cheap
// check workers use to skip compiling cancelled queued jobs).
func (f *Future) isResolved() bool { return f.resolved.Load() }

type job struct {
	ctx    context.Context
	client string
	sel    *repro.Selector
	forest *repro.Forest
	fut    *Future
	// lease pins the table-set version the job resolved at submission:
	// released after the future settles, which is what lets Registry.Swap
	// retire an old version exactly when its last queued or in-flight job
	// finishes. Jobs queued before a cutover compile on the version they
	// resolved; jobs submitted after it ride the new one.
	lease *repro.Lease
	// cleanup detaches the cancellation hook and releases the
	// request-timeout timer; the worker runs it after the future settles
	// (nil for plain Background submissions).
	cleanup func()
	// trace is the job's pooled stage timeline: lease stamped at submit,
	// queue at worker pickup, label/reduce/emit inside Compile.
	// Recorded into the latency collector and slowlog, then recycled.
	trace *telemetry.Trace
	// detail asks the worker to copy the finished trace onto the future.
	detail bool
}

// Server multiplexes compilation jobs from many concurrent clients onto
// the shared warm engines of a repro.Registry. All methods are safe for
// concurrent use.
type Server struct {
	reg *repro.Registry
	cfg Config

	jobs chan job
	wg   sync.WaitGroup

	// mu guards the closed flag against racing submits; submitters hold
	// the read side so they can block on a full queue concurrently.
	mu     sync.RWMutex
	closed bool

	// cmu guards the per-client counter map (a separate lock from mu so
	// workers recording results never contend with a pending Shutdown).
	cmu     sync.Mutex
	clients map[string]*metrics.Counters

	global        metrics.Counters
	jobsDone      atomic.Int64
	jobsCancelled atomic.Int64
	nodesDone     atomic.Int64

	// The telemetry plane: pooled traces, machine × kind × stage latency
	// histograms, and the slowest-requests ring. Always on — its warm
	// cost is a handful of monotonic stamps and atomic adds per job,
	// which the PF trajectory's telemetry column gates.
	traces  telemetry.TracePool
	lat     *telemetry.Collector
	slow    *telemetry.Slowlog
	started time.Time
}

// New starts a server over reg. Every registered machine is servable;
// selectors are constructed lazily by the registry on a machine's first
// job (or eagerly by a caller that warms the registry first). The caller
// keeps ownership of reg and may inspect warmth (Status) at any time, but
// must not call LoadAutomaton on a served selector while the server runs.
func New(reg *repro.Registry, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	s := &Server{
		reg:     reg,
		cfg:     cfg,
		jobs:    make(chan job, cfg.QueueDepth),
		clients: map[string]*metrics.Counters{},
		lat:     telemetry.NewCollector(),
		slow:    telemetry.NewSlowlog(cfg.SlowlogSize),
		started: time.Now(),
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// NewSingle starts a server over one prebuilt selector — the
// single-machine shape of PR 2, kept for harnesses that construct their
// selector by hand. The selector is registered under its machine's name
// and also serves requests that name no machine.
func NewSingle(sel *repro.Selector, cfg Config) *Server {
	reg := repro.NewRegistry()
	if err := reg.AddSelector(sel); err != nil {
		panic(err) // fresh registry, one entry: cannot collide
	}
	return New(reg, cfg)
}

// Registry returns the served registry (for warmth inspection).
func (s *Server) Registry() *repro.Registry { return s.reg }

// Evict drops machine's constructed engine from the served registry (the
// registry default when empty): its next job reconstructs a fresh one.
// The operational reset for a MaxStates-capped automaton, exposed over
// HTTP as POST /evict. Jobs already holding the old selector finish on it
// unharmed.
func (s *Server) Evict(machine string) error { return s.reg.Evict(machine) }

// Swap rebuilds machine's table set (the registry default when empty) and
// cuts traffic over with zero downtime — see Registry.Swap. Jobs queued
// or in flight when the cutover lands finish on the version they
// resolved; the old version retires when the last of them does. Exposed
// over HTTP as POST /swap.
func (s *Server) Swap(machine string) error { return s.reg.Swap(machine) }

// Ready reports whether this server should receive routed traffic: it is
// not shut down, no machine is mid-swap, and every machine the deployment
// marked ExpectWarm is serving warm — the body of GET /readyz. Distinct
// from liveness (/healthz): a re-colding or mid-cutover replica is alive
// but not ready.
func (s *Server) Ready() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrShutdown
	}
	return s.reg.Ready()
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

func (s *Server) worker() {
	defer s.wg.Done()
	var jm metrics.Counters // reused per job; deltas merge after each
	for j := range s.jobs {
		jm.Reset()
		s.runJob(j, &jm)
	}
}

// runJob compiles one job and resolves its future, containing panics:
// dynamic-cost functions are arbitrary grammar-supplied Go code, and one
// poisoned tree must fail its own future with an error rather than kill
// the worker, strand later futures and wedge Shutdown.
func (s *Server) runJob(j job, jm *metrics.Counters) {
	if j.cleanup != nil {
		// Deferred first so it runs last, after the future has resolved on
		// every path below.
		defer j.cleanup()
	}
	// The version lease is held until the future settles: a swapped-out
	// table set drains on exactly its own jobs. Release is nil-safe.
	defer j.lease.Release()
	// The queue span ends the moment a worker picks the job up.
	j.trace.Mark(telemetry.StageQueue)
	// A queued job whose context already ended resolves (or has resolved,
	// via its cancellation hook) with ctx.Err() and is never compiled.
	if j.fut.isResolved() {
		s.jobsCancelled.Add(1)
		s.finishTrace(&j, nil, context.Cause(j.ctx))
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.fut.resolve(nil, err)
		s.jobsCancelled.Add(1)
		s.finishTrace(&j, nil, err)
		return
	}
	var out *repro.Output
	var err error
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("server: compile panicked: %v", r)
		}
		s.clientCounters(j.client).Add(jm)
		s.global.Add(jm)
		s.finishTrace(&j, j.fut, err)
		// Win the CAS, count the job, then publish, so a Stats read
		// after Wait sees the job.
		won := j.fut.resolved.CompareAndSwap(false, true)
		switch {
		case !won:
			// The cancellation hook resolved first: the context ended while
			// the compile ran (no checkpoint fired, e.g. a stalled
			// dynamic-cost function) and the client already has ctx.Err().
			// The computed result is dropped; the job counts as cancelled,
			// though its work is merged above where it actually happened.
			s.jobsCancelled.Add(1)
		case err != nil && j.ctx.Err() != nil && errors.Is(err, j.ctx.Err()):
			// Cancelled mid-compile at a reducer checkpoint.
			s.jobsCancelled.Add(1)
		default:
			s.jobsDone.Add(1)
			s.nodesDone.Add(int64(j.forest.NumNodes()))
		}
		if won {
			j.fut.publish(out, err)
		}
	}()
	out, err = j.sel.Compile(j.ctx, j.forest, repro.WithCounters(jm), repro.WithTrace(j.trace))
}

// finishTrace closes a job's trace and feeds the telemetry plane:
// the series histograms (a handful of atomic adds), the slowlog (an
// atomic floor test for fast requests), and — on the detail path only —
// a heap copy onto the future. The pooled trace is recycled here; fut
// must still be unresolved when non-nil so the entry is published
// before resolve's CAS.
func (s *Server) finishTrace(j *job, fut *Future, err error) {
	tr := j.trace
	if tr == nil {
		return
	}
	if err != nil {
		tr.Err = err.Error()
	}
	tr.Finish()
	s.lat.Set(tr.Machine, tr.Kind).RecordTrace(tr)
	s.slow.Record(telemetry.EntryOf(tr))
	if j.detail && fut != nil {
		e := telemetry.EntryOf(tr)
		fut.traceEntry = &e
	}
	s.traces.Put(tr)
}

// Submit enqueues one forest for client against machine (the registry's
// default when empty) and returns its future. It blocks while the queue
// is full (backpressure) unless ctx ends first, and fails with
// ErrShutdown once Shutdown has begun.
//
// ctx covers the job's whole lifetime: cancelling it while the job is
// queued resolves the future with ctx.Err(); cancelling it mid-compile
// stops the compile at a cooperative checkpoint. Config.RequestTimeout,
// when set, arms an additional per-request deadline starting now.
func (s *Server) Submit(ctx context.Context, client, machine string, f *repro.Forest) (*Future, error) {
	return s.SubmitTraced(ctx, client, machine, f, TraceOptions{})
}

// TraceOptions controls the telemetry attached to a submission. The zero
// value is the hot path: the job is still traced into the histograms and
// slowlog (pooled, no allocation), but no per-request copy is retained.
type TraceOptions struct {
	// RequestID, when nonzero, names the request in traces and the
	// slowlog instead of a freshly drawn ID — how a router's ID follows
	// a request across a failover hop (X-Isel-Request-Id). A batch
	// shares one ID across its jobs: one wire request, one identity.
	RequestID uint64
	// Detail asks for a heap copy of the finished stage timeline on the
	// future (Future.TraceEntry) — the ?trace=1 path. Costs one Entry
	// allocation per job; leave it off on the steady-state path.
	Detail bool
}

// SubmitTraced is Submit with explicit trace options. The trace begins
// before the version lease is acquired, so StageLease covers exactly the
// acquire (including a cold machine's lazy construction).
func (s *Server) SubmitTraced(ctx context.Context, client, machine string, f *repro.Forest, topt TraceOptions) (*Future, error) {
	id := topt.RequestID
	if id == 0 {
		id = s.traces.NextID()
	}
	tr := s.traces.GetWithID(id, machine, "", client)
	lease, err := s.reg.Acquire(machine)
	tr.Mark(telemetry.StageLease)
	if err != nil {
		s.traces.Put(tr)
		return nil, err
	}
	// Backfill the resolved identity: an empty machine name resolves to
	// the registry default, and the engine kind is only known post-lease.
	tr.Machine = lease.Selector.Machine().Name
	tr.Kind = string(lease.Selector.Kind())
	return s.submit(ctx, client, lease, f, tr, topt.Detail)
}

// submit enqueues one job against an acquired version lease. On every
// refusal path the lease is released and the trace recycled here; once
// the job is enqueued the worker owns both.
func (s *Server) submit(ctx context.Context, client string, lease *repro.Lease, f *repro.Forest, tr *telemetry.Trace, detail bool) (*Future, error) {
	if f == nil {
		lease.Release()
		s.traces.Put(tr)
		return nil, fmt.Errorf("server: nil forest")
	}
	if err := ctx.Err(); err != nil {
		lease.Release()
		s.traces.Put(tr)
		return nil, err
	}
	ctx, cancel := s.jobContext(ctx)
	fut := &Future{done: make(chan struct{})}
	j := job{ctx: ctx, client: client, sel: lease.Selector, forest: f, fut: fut, lease: lease,
		trace: tr, detail: detail}
	if ctx.Done() != nil {
		// Cancellable jobs arm a context hook that resolves the future
		// with ctx.Err() the moment the context ends — no parked watcher
		// goroutine per queued job. Background submissions — the
		// steady-state hot path — arm nothing.
		stop := context.AfterFunc(ctx, func() { fut.resolve(nil, ctx.Err()) })
		j.cleanup = func() {
			stop()
			if cancel != nil {
				cancel()
			}
		}
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		if j.cleanup != nil {
			j.cleanup()
		}
		lease.Release()
		s.traces.Put(tr)
		return nil, ErrShutdown
	}
	if s.cfg.ShedOnFull {
		// Shedding: take a free slot or refuse now — never park the
		// submitter behind a saturated queue.
		select {
		case s.jobs <- j:
			s.mu.RUnlock()
			return fut, nil
		default:
			s.mu.RUnlock()
			if j.cleanup != nil {
				j.cleanup()
			}
			lease.Release()
			s.traces.Put(tr)
			return nil, ErrQueueFull
		}
	}
	select {
	case s.jobs <- j:
		s.mu.RUnlock()
		return fut, nil
	case <-ctx.Done():
		s.mu.RUnlock()
		err := ctx.Err()
		if j.cleanup != nil {
			j.cleanup()
		}
		lease.Release()
		s.traces.Put(tr)
		return nil, err
	}
}

// jobContext arms the per-request deadline of Config.RequestTimeout, when
// configured. The returned cancel (nil without a timeout) is released by
// the future's watcher once the job settles.
func (s *Server) jobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, nil
}

// SubmitBatch enqueues several forests for client, returning one future
// per forest (in order). A batch is not atomic: if the server shuts down
// (or ctx ends) mid-batch, the futures enqueued so far remain valid and
// the error reports how many were accepted.
func (s *Server) SubmitBatch(ctx context.Context, client, machine string, fs []*repro.Forest) ([]*Future, error) {
	return s.SubmitBatchTraced(ctx, client, machine, fs, TraceOptions{})
}

// SubmitBatchTraced is SubmitBatch with explicit trace options. All jobs
// of the batch share one request ID (topt.RequestID, or one drawn now):
// one wire request, one identity in traces and the slowlog.
func (s *Server) SubmitBatchTraced(ctx context.Context, client, machine string, fs []*repro.Forest, topt TraceOptions) ([]*Future, error) {
	if topt.RequestID == 0 {
		topt.RequestID = s.traces.NextID()
	}
	futs := make([]*Future, 0, len(fs))
	for _, f := range fs {
		// One lease per job, acquired at enqueue time (inside
		// SubmitTraced): a batch straddling a hot swap routes its
		// remaining forests to the new version the instant it is
		// published, like any other new submission.
		fut, err := s.SubmitTraced(ctx, client, machine, f, topt)
		if err != nil {
			if len(futs) == 0 {
				return nil, err
			}
			return futs, fmt.Errorf("server: batch accepted %d of %d: %w", len(futs), len(fs), err)
		}
		futs = append(futs, fut)
	}
	return futs, nil
}

// SubmitUnit enqueues every function of a lowered unit, one future per
// function in unit order — the server-side mirror of
// Selector.CompileUnit.
func (s *Server) SubmitUnit(ctx context.Context, client, machine string, u *repro.Unit) ([]*Future, error) {
	fs := make([]*repro.Forest, len(u.Funcs))
	for i, fn := range u.Funcs {
		fs[i] = fn.Forest
	}
	return s.SubmitBatch(ctx, client, machine, fs)
}

// CompileUnit submits a unit and waits for all of it: the synchronous
// client call. Outputs are indexed by function; the first error (by
// function order) is returned after all futures resolve.
func (s *Server) CompileUnit(ctx context.Context, client, machine string, u *repro.Unit) ([]*repro.Output, error) {
	futs, err := s.SubmitUnit(ctx, client, machine, u)
	if err != nil {
		return nil, err
	}
	outs := make([]*repro.Output, len(futs))
	var firstErr error
	for i, fut := range futs {
		out, err := fut.Wait()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", u.Funcs[i].Name, err)
		}
		outs[i] = out
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// Shutdown refuses new submissions, drains every queued and in-flight
// job (all futures resolve), and stops the workers. It is idempotent and
// safe to call concurrently.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}

// clientCounters returns the counter sink for client, creating it on
// first use.
func (s *Server) clientCounters(client string) *metrics.Counters {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	c, ok := s.clients[client]
	if !ok {
		c = &metrics.Counters{}
		s.clients[client] = c
	}
	return c
}

// Clients lists the clients that have completed at least one job, sorted.
func (s *Server) Clients() []string {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	names := make([]string, 0, len(s.clients))
	for n := range s.clients {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClientCounters returns a snapshot of one client's merged work counters
// (zero counters for unknown clients).
func (s *Server) ClientCounters(client string) metrics.Counters {
	s.cmu.Lock()
	c := s.clients[client]
	s.cmu.Unlock()
	return c.Clone() // Clone is nil-safe
}

// GlobalCounters returns a snapshot of the server-wide work counters: the
// merge of every completed job's delta, and therefore exactly the sum of
// the per-client counters.
func (s *Server) GlobalCounters() metrics.Counters { return s.global.Clone() }

// Stats is a point-in-time view of the server and its engines' warmth.
type Stats struct {
	// Workers and QueueDepth echo the configuration.
	Workers    int
	QueueDepth int
	// Jobs and Nodes count jobs a worker ran to completion and their IR
	// nodes — including jobs that failed with a compile error (a panicked
	// dynamic cost, an exhausted state budget): they were served, their
	// failure is the answer. Cancelled counts jobs whose context ended
	// before or during compilation; their dropped work appears nowhere
	// else.
	Jobs      int64
	Nodes     int64
	Cancelled int64
	// Queued is the current queue occupancy (instantaneous).
	Queued int
	// Clients is the number of distinct clients served.
	Clients int
	// Machines is every registered machine's serving state and automaton
	// warmth — the amortization story per machine description: each curve
	// climbs while its traffic is cold and flattens as the mix is covered.
	Machines []repro.MachineStatus
	// ResidentBytes is the total table memory resident in the registry —
	// every constructed machine plus every swapped-out version still
	// draining; MaxTableBytes is the armed budget (0 = unlimited).
	ResidentBytes int
	MaxTableBytes int
	// Global is a snapshot of the server-wide work counters.
	Global metrics.Counters
	// Latency is the per-series (machine × engine kind) stage latency
	// histograms, mergeable across servers with telemetry.MergeSeries —
	// how a router aggregates a fleet's p99s, exactly as counters merge
	// with Counters.Add.
	Latency []telemetry.SeriesSnapshot
}

// Stats samples the server. Safe to call concurrently with compilation.
func (s *Server) Stats() Stats {
	s.cmu.Lock()
	nClients := len(s.clients)
	s.cmu.Unlock()
	return Stats{
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Jobs:          s.jobsDone.Load(),
		Nodes:         s.nodesDone.Load(),
		Cancelled:     s.jobsCancelled.Load(),
		Queued:        len(s.jobs),
		Clients:       nClients,
		Machines:      s.reg.Status(),
		ResidentBytes: s.reg.ResidentBytes(),
		MaxTableBytes: s.reg.MaxTableBytes(),
		Global:        s.global.Clone(),
		Latency:       s.lat.Snapshot(),
	}
}

// NextRequestID draws a fresh trace request id — what the HTTP front
// end uses when a request arrives without an X-Isel-Request-Id.
func (s *Server) NextRequestID() uint64 { return s.traces.NextID() }

// LatencySnapshots returns the per-series stage latency histograms
// (sorted by machine, then kind).
func (s *Server) LatencySnapshots() []telemetry.SeriesSnapshot { return s.lat.Snapshot() }

// SlowlogEntries returns the retained slowest requests, slowest first.
func (s *Server) SlowlogEntries() []telemetry.Entry { return s.slow.Entries() }

// Started returns when the server was constructed (uptime anchor for
// GET /version).
func (s *Server) Started() time.Time { return s.started }
