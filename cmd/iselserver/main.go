// Command iselserver runs the compilation server: one process hosting a
// registry of warm labeling engines — one per served machine description —
// shared by every client that connects. This is the deployment shape the
// paper's on-demand automata amortize best in (see internal/server).
//
// Usage:
//
//	iselserver -machines x86 -addr :8931
//	iselserver -machines x86,jit64,mips -kind ondemand -workers 8 -queue 64
//	iselserver -machines x86,jit64 -automaton-dir /var/lib/isel -timeout 2s
//	iselserver -machines x86,jit64 -preload ./tables -max-table-bytes 8388608
//
// Protocol (HTTP/JSON; see internal/server for the request schemas):
//
//	POST /compile?machine=x86  {"client":"ci-1","trees":"ADD(REG[1], CNST[2])"}
//	POST /compile              {"client":"ci-2","minc":"int main() { return 42; }"}
//	POST /swap?machine=x86     rebuild the machine's table set and cut over with zero downtime
//	POST /evict?machine=x86    drop the machine's engine; next job rebuilds it
//	GET  /stats                every registered machine's warmth, version and drain state
//	GET  /readyz               200 once every boot machine is warm and no swap is mid-cutover
//	GET  /healthz              200 while the process accepts work at all
//	GET  /metrics              Prometheus text exposition: counters, gauges, stage histograms
//	GET  /version              build identity, uptime, per-machine grammar fingerprints
//	GET  /debug/slowlog        the N slowest requests with per-stage timings (and, on the
//	                           router, the failover hop chain naming every owner tried)
//
// Every compile response carries an X-Isel-Trace header summarizing the
// batch's slowest job stage by stage; ?trace=1 adds the full per-output
// timelines to the body. -pprof mounts net/http/pprof under
// /debug/pprof/ (all roles); -log-level sets the leveled logger's
// threshold.
//
// The machine query parameter picks the machine description; without it,
// requests land on the first -machines entry. -timeout bounds each job
// (queue wait + compile; exceeded jobs answer 504); -max-states bounds
// each on-demand automaton's state table (exhausted budgets answer 503);
// -shed turns a saturated queue from backpressure into load shedding
// (jobs that would block answer 429 with Retry-After). POST /evict resets
// a machine (a capped automaton starts over without a restart).
// -max-table-bytes bounds the summed resident table bytes, evicting the
// least recently used machine (live versions draining through a swap
// count toward the budget but are never its victims — cold machines
// are).
//
// With -automaton-dir, each machine's saved on-demand tables are loaded
// at boot (warm start: zero misses on traffic the previous run saw) and
// saved back on graceful drain, one <machine>.automaton file each. A
// corrupt file is quarantined to <machine>.automaton.bad and the machine
// constructs cold instead of failing.
//
// With -preload, each machine whose <machine>.isel blob exists in the
// given directory (written by cmd/iselgen) is served from those
// ahead-of-time tables. The blob's grammar fingerprint decides the
// engine: a full-grammar blob for a grammar with dynamic-cost rules
// (written by `iselgen`) is served by the `hybrid` engine — fixed
// operators warm before the first request, dynamic operators on-demand; a
// full-grammar blob for a fixed-only grammar is served fully warm by the
// `static` engine; and a blob matching only the machine's fixed-cost
// subset (written by `iselgen -fixed`) serves that stripped subset
// `static`.
// Machines without a blob fall back to -kind; mismatched tables are
// rejected at boot, corrupt blobs are quarantined to <machine>.isel.bad
// and the machine falls back to in-process tables.
//
// SIGHUP re-scans -preload and -automaton-dir and hot-swaps every served
// machine to its freshly resolved recipe (POST /swap does the same for
// one machine): a newly deployed or regenerated blob is picked up — even
// electing a different engine kind — with zero downtime, live warmth
// carried over, and the old tables serving until their last in-flight job
// resolves. A machine whose new recipe fails to build keeps serving its
// old version.
//
// SIGINT/SIGTERM shut down gracefully: in-flight compilations drain, the
// automata persist (when -automaton-dir is set), and the final
// warmth/throughput stats are printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	machines := flag.String("machines", "x86", "comma-separated machine descriptions to serve (first is the default)")
	kind := flag.String("kind", string(repro.KindOnDemand), "labeling engine kind for machines without a -preload blob (dp, static, ondemand, hybrid)")
	addr := flag.String("addr", ":8931", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "work-queue depth (0 = 4*workers)")
	timeout := flag.Duration("timeout", 0, "per-request deadline for each compile job (0 = none)")
	maxStates := flag.Int("max-states", 0, "state budget per on-demand automaton (0 = unlimited; exhausted budgets answer 503)")
	autoDir := flag.String("automaton-dir", "", "directory of persisted automata: loaded per machine at boot, saved on graceful drain")
	preload := flag.String("preload", "", "directory of iselgen .isel blobs: machines with a <machine>.isel file are served from those tables (static, or hybrid for a grammar with dynamic-cost rules)")
	maxTableBytes := flag.Int("max-table-bytes", 0, "byte budget for summed resident table bytes, evicting the least recently used machine when exceeded (0 = unlimited)")
	shed := flag.Bool("shed", false, "shed load when the work queue is full (429 + Retry-After) instead of blocking the submitter")
	role := flag.String("role", "standalone", "serving role: standalone, replica (fleet member serving its ring-owned machines warm), or router (fleet front end)")
	peers := flag.String("peers", "", "comma-separated replica base URLs (the fleet's static membership; required for -role replica|router)")
	self := flag.String("self", "", "this replica's base URL, exactly as it appears in -peers (required for -role replica)")
	replication := flag.Int("replication", 2, "ring owners per machine (clamped to the fleet size)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: profiling is opt-in)")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn, error")
	flag.Parse()

	lv, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselserver:", err)
		os.Exit(2)
	}
	cfg := serveConfig{
		machines: *machines, kind: *kind, addr: *addr,
		autoDir: *autoDir, preload: *preload,
		workers: *workers, queue: *queue,
		maxStates: *maxStates, maxTableBytes: *maxTableBytes,
		timeout: *timeout, shed: *shed,
		role: *role, peers: splitList(*peers), self: *self,
		replication: *replication,
		pprof:       *pprofOn,
		log:         telemetry.NewLogger(os.Stdout, lv),
	}
	switch cfg.role {
	case "standalone":
		err = run(cfg)
	case "replica":
		err = runReplica(cfg)
	case "router":
		err = runRouter(cfg)
	default:
		err = fmt.Errorf("unknown -role %q (standalone, replica, router)", cfg.role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselserver:", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	machines, kind, addr, autoDir, preload   string
	workers, queue, maxStates, maxTableBytes int
	timeout                                  time.Duration
	shed                                     bool

	role, self  string
	peers       []string
	replication int

	pprof bool
	log   *telemetry.Logger
}

// mount wraps a role's handler with the process-wide debug surface:
// net/http/pprof under /debug/pprof/ when -pprof is set (opt-in — an
// open profiler is not a default any fleet wants). Everything else
// passes through to the role handler.
func (cfg serveConfig) mount(h http.Handler) http.Handler {
	if !cfg.pprof {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func (cfg serveConfig) machineList() []string { return splitList(cfg.machines) }

// runReplica boots one fleet member: the full standalone serving stack,
// with every ring-owned machine made warm before the listener opens — from
// its -preload blob, else from tables computed here; see internal/cluster.
func runReplica(cfg serveConfig) error {
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Self:         cfg.self,
		Peers:        cfg.peers,
		Machines:     cfg.machineList(),
		Replication:  cfg.replication,
		PreloadDir:   cfg.preload,
		FallbackKind: repro.Kind(cfg.kind),
		MaxStates:    cfg.maxStates,
		Server: server.Config{
			Workers: cfg.workers, QueueDepth: cfg.queue,
			RequestTimeout: cfg.timeout, ShedOnFull: cfg.shed,
		},
		Logf: cfg.log.Printf(telemetry.LevelInfo, "cluster"),
	})
	if err != nil {
		return err
	}
	rep.StartProbing(2 * time.Second)
	cfg.log.Infof("boot", "replica %s owns %s (fleet %s) on %s",
		cfg.self, strings.Join(rep.Owned(), ","), strings.Join(cfg.peers, ","), cfg.addr)
	return serveUntilSignal(cfg.addr, cfg.mount(rep.Handler()), rep.Shutdown)
}

// runRouter boots the fleet front end: consistent-hash proxying with
// failover, aggregated /stats, shard-aware /readyz.
func runRouter(cfg serveConfig) error {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:         cfg.peers,
		Machines:      cfg.machineList(),
		Replication:   cfg.replication,
		PerTryTimeout: cfg.timeout,
		Logf:          cfg.log.Printf(telemetry.LevelInfo, "router"),
	})
	if err != nil {
		return err
	}
	rt.StartProbing(2 * time.Second)
	cfg.log.Infof("boot", "router over %s (replication %d) on %s",
		strings.Join(cfg.peers, ","), cfg.replication, cfg.addr)
	return serveUntilSignal(cfg.addr, cfg.mount(rt.Handler()), rt.Stop)
}

// serveUntilSignal runs handler on addr until SIGINT/SIGTERM, then drains
// the HTTP listener and calls shutdown.
func serveUntilSignal(addr string, handler http.Handler, shutdown func()) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("iselserver: %v, draining...\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(ctx)
	shutdown()
	return err
}

func run(cfg serveConfig) error {
	reg := repro.NewRegistry()
	// Quarantines and swap fallbacks are operator-actionable: warn level.
	reg.SetLogger(cfg.log.Printf(telemetry.LevelWarn, "registry"))
	if cfg.autoDir != "" {
		reg.SetAutomatonDir(cfg.autoDir)
	}
	if cfg.maxTableBytes > 0 {
		reg.SetMaxTableBytes(cfg.maxTableBytes)
	}
	var names []string
	for _, name := range strings.Split(cfg.machines, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		rc, err := cluster.ResolveRecipe(name, cfg.preload, cfg.kind, cfg.maxStates)
		if err != nil {
			return err
		}
		if err := reg.AddMachine(rc.M, rc.Kind, rc.Opt); err != nil {
			return err
		}
		if rc.Detail != "" {
			fmt.Printf("iselserver: %s preloaded from %s (%s)\n", name, rc.Opt.PreloadPath, rc.Detail)
		} else if cfg.preload != "" {
			fmt.Printf("iselserver: no %s.isel in %s; serving %s with the %s engine\n", name, cfg.preload, name, cfg.kind)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return fmt.Errorf("no machines to serve (-machines %q)", cfg.machines)
	}
	// Construct engines at boot: it surfaces bad machine names before the
	// listener opens, and it is the moment persisted/preloaded tables
	// restore so first traffic is already warm. Under a -max-table-bytes
	// budget below the machines' total, the boot warm itself evicts the
	// least recently warmed ones; they construct again on their first
	// request. The machines still resident afterwards are what /readyz
	// vouches for.
	for _, name := range names {
		if err := reg.Warm(name); err != nil {
			return err
		}
	}
	var cold []string
	for _, st := range reg.Status() {
		if !st.Constructed {
			cold = append(cold, st.Machine)
			continue
		}
		if err := reg.ExpectWarm(st.Machine); err != nil {
			return err
		}
	}
	if len(cold) > 0 {
		fmt.Printf("iselserver: -max-table-bytes %d holds %d of %d machines; cold until their first request: %s\n",
			cfg.maxTableBytes, len(names)-len(cold), len(names), strings.Join(cold, ","))
	}
	if cfg.autoDir != "" {
		for name, snap := range reg.Snapshots() {
			if snap.States > 0 {
				fmt.Printf("iselserver: %s restored with %d states, %d transitions\n", name, snap.States, snap.Transitions)
			}
		}
	}

	srv := server.New(reg, server.Config{
		Workers: cfg.workers, QueueDepth: cfg.queue,
		RequestTimeout: cfg.timeout, ShedOnFull: cfg.shed,
	})
	hs := &http.Server{Addr: cfg.addr, Handler: cfg.mount(server.NewHandler(srv))}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	// Engines may differ per machine (preloaded ones serve static or hybrid), so
	// the banner reports each machine's actual kind.
	var served []string
	for _, st := range reg.Status() {
		served = append(served, fmt.Sprintf("%s[%s]", st.Machine, st.Kind))
	}
	fmt.Printf("iselserver: serving %s (%d workers) on %s\n",
		strings.Join(served, ","), srv.Workers(), cfg.addr)

	var sig os.Signal
loop:
	for {
		select {
		case err := <-errc:
			return err
		case sig = <-stop:
			if sig != syscall.SIGHUP {
				break loop
			}
			rescan(reg, names, cfg)
		}
	}
	fmt.Printf("iselserver: %v, draining...\n", sig)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Even if the HTTP drain deadline is exceeded, the compilation server
	// itself must still drain (every accepted future resolves), the
	// automata must persist, and the final stats must print.
	httpErr := hs.Shutdown(ctx)
	srv.Shutdown()
	if cfg.autoDir != "" {
		if err := reg.SaveAll(); err != nil {
			fmt.Fprintln(os.Stderr, "iselserver: saving automata:", err)
			if httpErr == nil {
				httpErr = err
			}
		} else {
			fmt.Printf("iselserver: automata saved to %s\n", cfg.autoDir)
		}
	}
	st := srv.Stats()
	fmt.Printf("iselserver: served %d jobs (%d IR nodes, %d cancelled) for %d clients\n",
		st.Jobs, st.Nodes, st.Cancelled, st.Clients)
	for _, ms := range st.Machines {
		if !ms.Constructed {
			continue
		}
		fmt.Printf("iselserver: %s automaton ended at %d states, %d transitions, %d table bytes\n",
			ms.Machine, ms.Warmth.States, ms.Warmth.Transitions, ms.Warmth.MemoryBytes)
	}
	return httpErr
}

// rescan re-resolves every served machine's recipe against the artifact
// directories and hot-swaps each to it. Per-machine failures (a corrupt
// new blob, a fingerprint mismatch, a racing swap) are logged and leave
// that machine's old version serving — a bad re-deploy never takes
// traffic down.
func rescan(reg *repro.Registry, names []string, cfg serveConfig) {
	fmt.Printf("iselserver: SIGHUP, re-scanning artifacts and hot-swapping %s\n", strings.Join(names, ","))
	for _, name := range names {
		rc, err := cluster.ResolveRecipe(name, cfg.preload, cfg.kind, cfg.maxStates)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iselserver: %s: %v; the old version keeps serving\n", name, err)
			continue
		}
		if err := reg.SwapMachine(rc.M, rc.Kind, rc.Opt); err != nil {
			fmt.Fprintf(os.Stderr, "iselserver: %s: %v\n", name, err)
			continue
		}
		for _, st := range reg.Status() {
			if st.Machine == name {
				detail := rc.Detail
				if detail == "" {
					detail = fmt.Sprintf("%s engine", rc.Kind)
				}
				fmt.Printf("iselserver: %s now v%d (%s)\n", name, st.Version, detail)
				break
			}
		}
	}
}
