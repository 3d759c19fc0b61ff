// Command iselbench regenerates the evaluation tables and figures of the
// reproduction (E1–E8, the RunE* functions of internal/bench) and runs the
// SV and PF experiments below.
//
// Usage:
//
//	iselbench                  # run every experiment
//	iselbench -experiment E4   # one experiment
//	iselbench -grammar mips    # grammar for the per-grammar experiments
//	iselbench -ablations       # also run the design-choice ablations
//	iselbench -experiment SV -clients 1,2,4,8
//	                           # compilation-server replay: N concurrent
//	                           # clients multiplexed onto one warm engine
//	                           # through internal/server (the Server that
//	                           # cmd/iselserver fronts)
//	iselbench -experiment SV -swap-at 100
//	                           # mid-traffic hot-swap scenario: swap the
//	                           # served table set after 100 jobs, under
//	                           # injected faults (corrupt blob, panicking
//	                           # cost fn, cancellation racing cutover,
//	                           # saturated queue), asserting zero failed
//	                           # requests, exact accounting and warmth
//	                           # continuity
//	iselbench -experiment PF -perf-out BENCH_PR3.json
//	                           # machine-readable warm-path trajectory:
//	                           # cold/warm ns/node, allocs per corpus pass,
//	                           # table bytes — committed per PR so hot-path
//	                           # changes have a history to diff against
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run: E1..E8, SV, PF or all")
	gname := flag.String("grammar", "x86", "grammar for per-grammar experiments (E3, E4, E5, E7, SV)")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	clients := flag.String("clients", "1,2,4,8", "client counts for the SV compilation-server experiment")
	svMachines := flag.String("machines", "", "comma-separated machines for the SV mixed-machine replay (defaults to -grammar; several names interleave clients across machines)")
	svWorkers := flag.Int("sv-workers", 0, "server worker-pool size for SV (0 = GOMAXPROCS)")
	svPasses := flag.Int("sv-passes", 10, "corpus passes per client per SV configuration")
	swapAt := flag.Int("swap-at", 0, "run the SV mid-traffic-swap scenario instead of the throughput replay, hot-swapping after N resolved jobs (0 = off; negative = swap at the halfway point)")
	replicas := flag.Int("replicas", 0, "run the SV replay through a fleet of N cluster replicas behind the consistent-hash router instead of one in-process server (0 = off)")
	replication := flag.Int("replication", 2, "ring owners per machine for the -replicas fleet")
	killReplica := flag.Int("kill-replica", -1, "halfway through the -replicas replay, hard-kill the primary ring owner of the Nth served machine (asserting zero failed client requests and real failovers; -1 = off)")
	perfOut := flag.String("perf-out", "", "write the PF experiment's report to this JSON file (e.g. BENCH_PR3.json)")
	perfPasses := flag.Int("perf-passes", 30, "timed corpus passes per grammar for PF")
	traceOut := flag.String("trace-out", "", "after the SV replay, dump the serving tier's slowlog (slowest requests with per-stage spans; hop chains in -replicas mode) as JSON to this file")
	flag.Parse()
	bench.SVTraceDump = *traceOut

	cs, err := parseCounts("-clients", *clients)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	if err := run(*exp, *gname, *svMachines, *ablations, cs, *svWorkers, *svPasses, *swapAt, *replicas, *replication, *killReplica, *perfOut, *perfPasses); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}

func parseCounts(flagName, s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s entry %q (want positive integers)", flagName, part)
		}
		ws = append(ws, n)
	}
	return ws, nil
}

func run(exp, gname, svMachines string, ablations bool, clients []int, svWorkers, svPasses, swapAt, replicas, replication, killReplica int, perfOut string, perfPasses int) error {
	gnames := []string{gname}
	if svMachines != "" {
		gnames = nil
		for _, part := range strings.Split(svMachines, ",") {
			if part = strings.TrimSpace(part); part != "" {
				gnames = append(gnames, part)
			}
		}
	}
	type step struct {
		id string
		fn func() error
	}
	steps := []step{
		{"E1", func() error { _, t, err := bench.RunE1(); show(t, err); return err }},
		{"E2", func() error { _, t, err := bench.RunE2(); show(t, err); return err }},
		{"E3", func() error {
			for _, g := range []string{gname, "jit64"} {
				_, t, err := bench.RunE3(g)
				show(t, err)
				if err != nil {
					return err
				}
				if g == gname && gname == "jit64" {
					break
				}
			}
			return nil
		}},
		{"E4", func() error { _, t, err := bench.RunE4(gname); show(t, err); return err }},
		{"E5", func() error {
			_, fig, err := bench.RunE5(gname)
			if err == nil {
				fmt.Println(fig)
			}
			return err
		}},
		{"E6", func() error { _, t, err := bench.RunE6(); show(t, err); return err }},
		{"E7", func() error { _, t, err := bench.RunE7(gname); show(t, err); return err }},
		{"E8", func() error { _, t, err := bench.RunE8(); show(t, err); return err }},
		{"SV", func() error {
			if replicas > 0 {
				// Distributed replay: N replicas behind the router, warm
				// before traffic, zero-failed-request + exact fleet
				// accounting asserted (see internal/bench/cluster.go).
				nClients := 0
				for _, c := range clients {
					if c > nClients {
						nClients = c
					}
				}
				_, t, err := bench.RunClusterSV(gnames, replicas, replication, nClients, svPasses, svWorkers, killReplica)
				show(t, err)
				return err
			}
			if swapAt != 0 {
				// Mid-traffic-swap robustness scenario: hot-swap the served
				// table set after swapAt resolved jobs, under each injected
				// fault, asserting zero failed requests, exact accounting and
				// warmth continuity (see internal/bench/swap.go).
				nClients := 0
				for _, c := range clients {
					if c > nClients {
						nClients = c
					}
				}
				t, err := bench.RunServerSwap(gnames[0], nClients, svWorkers, svPasses, swapAt)
				show(t, err)
				return err
			}
			_, t, warmth, err := bench.RunServer(gnames, clients, svWorkers, svPasses)
			show(warmth, err)
			show(t, err)
			return err
		}},
		{"PF", func() error {
			rep, t, err := bench.RunPerf(perfPasses)
			show(t, err)
			if err != nil {
				return err
			}
			if perfOut != "" {
				if err := rep.WriteJSON(perfOut); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", perfOut)
			}
			return nil
		}},
	}
	ran := false
	for _, s := range steps {
		if exp != "all" && exp != s.id {
			continue
		}
		ran = true
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want E1..E8, SV, PF or all)", exp)
	}
	if ablations {
		t, err := bench.RunAblationDeltaCap()
		show(t, err)
		if err != nil {
			return err
		}
		t2, err := bench.RunAblationHash(gname)
		show(t2, err)
		if err != nil {
			return err
		}
	}
	return nil
}

func show(t *bench.Table, err error) {
	if err == nil && t != nil {
		fmt.Println(t)
	}
}
