// Distributed serving quickstart: a three-replica fleet behind the
// consistent-hash router, entirely in-process over loopback HTTP.
//
// The walk-through shows the cluster tier's three claims end to end:
//
//  1. Warm at boot from local tables: every ring owner of a machine
//     computes that machine's fixed-operator closure itself while it
//     boots (well under a millisecond per machine), so each shard is
//     warm on all its owners before the first request, and no replica
//     asks another for anything (the shard map shows the warm owners).
//  2. The router fronts the fleet: /compile is proxied to the target
//     machine's ring owners, /readyz vouches for every shard, /stats
//     aggregates the fleet (per-client counters still sum exactly to
//     the global counters).
//  3. Failover: hard-kill a machine's primary owner mid-session and the
//     next request still succeeds — the router retries the buffered
//     request on the machine's next owner.
//
// Run with: go run ./examples/cluster
//
// Out of process, the same topology is three `iselserver -role replica`
// processes and one `iselserver -role router` (see README "Distributed
// serving").
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/server"
)

// booting answers 503 until the replica behind a listener exists — the
// listeners must be up first so the peers' URLs are known, and a
// still-booting member should look down, not hang.
type booting struct{ v atomic.Value }

type boxed struct{ h http.Handler }

func newBooting() *booting {
	b := &booting{}
	b.v.Store(boxed{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "booting", http.StatusServiceUnavailable)
	})})
	return b
}

func (b *booting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.v.Load().(boxed).h.ServeHTTP(w, r)
}

func main() {
	machines := []string{"x86", "jit64", "mips"}
	const replicas, replication = 3, 2

	// Open every listener first (answering 503), so every peer URL is
	// known, then boot a replica into each.
	fmt.Println("== booting the fleet ==")
	var handlers []*booting
	var servers []*httptest.Server
	var peers []string
	for i := 0; i < replicas; i++ {
		h := newBooting()
		handlers = append(handlers, h)
		servers = append(servers, httptest.NewServer(h))
		peers = append(peers, servers[i].URL)
	}
	var reps []*cluster.Replica
	for i := 0; i < replicas; i++ {
		i := i
		rep, err := cluster.NewReplica(cluster.ReplicaConfig{
			Self:        peers[i],
			Peers:       peers,
			Machines:    machines,
			Replication: replication,
			Server:      server.Config{Workers: 2},
			Logf: func(format string, args ...any) {
				fmt.Printf("  replica%d: %s\n", i, fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		reps = append(reps, rep)
		handlers[i].v.Store(boxed{rep.Handler()})
		defer rep.Shutdown()
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Peers: peers, Machines: machines, Replication: replication,
	})
	if err != nil {
		log.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// The router vouches for the whole fleet before any traffic.
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nrouter /readyz: %s (every shard has a warm owner)\n", resp.Status)

	fs := fleetStats(front.URL)
	fmt.Println("\n== shard map (machine -> ring owners) ==")
	for _, sh := range fs.Shards {
		fmt.Printf("  %-6s owners %v  warm %d/%d\n",
			sh.Machine, ownerIdx(peers, sh.Owners), len(sh.WarmOwners), len(sh.Owners))
	}

	// Compile through the router: the client never learns which replica
	// served it.
	fmt.Println("\n== compiling through the router ==")
	for _, m := range machines {
		out := compile(front.URL, m)
		fmt.Printf("  %-6s %d instructions, cost %d (tables: %d states)\n",
			m, out.Outputs[0].Instructions, out.Outputs[0].Cost, out.States)
	}

	// Hard-kill the primary owner of machines[0]; the router retries the
	// next request on the surviving owner.
	primary := fs.Shards[0].Owners[0]
	for i, p := range peers {
		if p == primary {
			fmt.Printf("\n== killing replica%d (primary owner of %s) ==\n", i, machines[0])
			servers[i].CloseClientConnections()
			servers[i].Close()
			reps[i].Shutdown()
			servers[i] = nil
		}
	}
	out := compile(front.URL, machines[0])
	fs = fleetStats(front.URL)
	fmt.Printf("  %s still compiles (%d instructions); router failovers: %d\n",
		machines[0], out.Outputs[0].Instructions, fs.Routing.Failovers)

	for _, s := range servers {
		if s != nil {
			s.Close()
		}
	}
	router.Stop()
}

func compile(base, machine string) *server.CompileResponse {
	body, _ := json.Marshal(server.CompileRequest{
		Client: "example", Trees: "ASGN(ADDRL[-8], ADD(REG[1], CNST[2]))",
	})
	resp, err := http.Post(base+"/compile?machine="+machine, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("compile on %s: %s", machine, resp.Status)
	}
	var out server.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return &out
}

func fleetStats(base string) *cluster.FleetStats {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var fs cluster.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		log.Fatal(err)
	}
	return &fs
}

// ownerIdx renders owner URLs as replicaN indices for readable output.
func ownerIdx(peers, owners []string) []string {
	var out []string
	for _, o := range owners {
		for i, p := range peers {
			if p == o {
				out = append(out, fmt.Sprintf("replica%d", i))
			}
		}
	}
	return out
}
