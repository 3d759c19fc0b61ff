package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/workload"
)

// The SV -replicas mode replays the compilation-server corpus through a
// real fleet: N cluster replicas behind the consistent-hash router, all
// in-process over loopback HTTP. It is the distributed form of RunServer
// and asserts the distributed forms of its invariants:
//
//   - warm before traffic: the router's /readyz is green and every ring
//     owner of every machine serves it constructed, with nonzero tables,
//     before the first client request;
//   - zero failed client requests, including with a replica killed
//     mid-traffic (the router retries each interrupted or failed job on
//     the machine's next owner with the buffered request body);
//   - exact accounting: the per-client counters the router aggregates
//     across the fleet sum exactly to the aggregated fleet-global
//     counters, machine by machine and counter by counter.

// ClusterFleet is a booted in-process fleet (replicas + router), usable
// by the bench and by tests.
type ClusterFleet struct {
	Peers    []string
	Replicas []*cluster.Replica
	Servers  []*httptest.Server
	Router   *cluster.Router
	RouterS  *httptest.Server
}

// Close tears the fleet down (idempotent per server; killed replicas and
// partial boots are skipped).
func (f *ClusterFleet) Close() {
	if f.RouterS != nil {
		f.RouterS.Close()
		f.Router.Stop()
	}
	for i, s := range f.Servers {
		if s == nil {
			continue
		}
		s.Close()
		if i < len(f.Replicas) {
			f.Replicas[i].Shutdown()
		}
	}
}

// Kill hard-kills replica i: in-flight connections are severed (the way
// a dying process severs them), the listener closes, and the slot is
// marked dead so Close skips it.
func (f *ClusterFleet) Kill(i int) {
	s := f.Servers[i]
	if s == nil {
		return
	}
	f.Servers[i] = nil
	s.CloseClientConnections()
	s.Close()
	f.Replicas[i].Shutdown()
}

// swapHandler lets a listener serve before its replica exists: until the
// real handler is swapped in, every request answers 503 — exactly what a
// still-booting fleet member looks like to its peers.
type swapHandler struct{ v atomic.Value }

type handlerBox struct{ h http.Handler }

func newSwapHandler() *swapHandler {
	s := &swapHandler{}
	s.v.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "booting", http.StatusServiceUnavailable)
	})})
	return s
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// BootCluster boots replicas+router over machines with the given
// replication factor. Every listener opens first (answering 503 while
// its replica boots), then replicas boot serially, each warming the
// machines it owns from tables it computes itself.
func BootCluster(gnames []string, replicas, replication, workers int) (*ClusterFleet, error) {
	f := &ClusterFleet{}
	handlers := make([]*swapHandler, replicas)
	for i := 0; i < replicas; i++ {
		handlers[i] = newSwapHandler()
		f.Servers = append(f.Servers, httptest.NewServer(handlers[i]))
		f.Peers = append(f.Peers, f.Servers[i].URL)
	}
	for i := 0; i < replicas; i++ {
		rep, err := cluster.NewReplica(cluster.ReplicaConfig{
			Self:        f.Peers[i],
			Peers:       f.Peers,
			Machines:    gnames,
			Replication: replication,
			Server:      server.Config{Workers: workers},
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Replicas = append(f.Replicas, rep)
		handlers[i].v.Store(handlerBox{rep.Handler()})
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:       f.Peers,
		Machines:    gnames,
		Replication: replication,
		Logf:        func(string, ...any) {},
		// A deep slowlog: the harness asserts failover hop chains are
		// retained, and fast normal requests must not evict them.
		SlowlogSize: 256,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Router = rt
	f.RouterS = httptest.NewServer(rt.Handler())
	return f, nil
}

// FleetStats fetches and decodes the router's aggregated /stats.
func (f *ClusterFleet) FleetStats() (*cluster.FleetStats, error) {
	resp, err := http.Get(f.RouterS.URL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var fs cluster.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return nil, err
	}
	return &fs, nil
}

// CheckFleetAccounting asserts the distributed accounting invariant on a
// quiescent fleet: the aggregated per-client counters sum exactly to the
// aggregated global counters.
func CheckFleetAccounting(fs *cluster.FleetStats) error {
	var sum metrics.Counters
	for _, c := range fs.Clients {
		c := c
		sum.Add(&c)
	}
	if sum != fs.Global {
		return fmt.Errorf("fleet accounting violated: clients sum to %+v, global is %+v", sum, fs.Global)
	}
	return nil
}

// CheckWarmShards asserts that every machine's every ring owner serves it
// constructed with nonzero tables — the "warm before the first client
// request" acceptance, read through the router's /stats.
func CheckWarmShards(fs *cluster.FleetStats) error {
	byPeer := map[string]*server.StatsResponse{}
	for _, rs := range fs.Replicas {
		byPeer[rs.Peer] = rs.Stats
	}
	for _, sh := range fs.Shards {
		for _, owner := range sh.Owners {
			sr := byPeer[owner]
			if sr == nil {
				return fmt.Errorf("shard %s: owner %s is unreachable", sh.Machine, owner)
			}
			found := false
			for _, ms := range sr.Machines {
				if ms.Machine == sh.Machine {
					found = true
					if !ms.Constructed || ms.Error != "" || ms.States == 0 {
						return fmt.Errorf("shard %s: owner %s not warm (constructed=%v err=%q states=%d)",
							sh.Machine, owner, ms.Constructed, ms.Error, ms.States)
					}
				}
			}
			if !found {
				return fmt.Errorf("shard %s: owner %s does not register the machine", sh.Machine, owner)
			}
		}
	}
	return nil
}

// RunClusterSV runs the multi-replica SV replay: the MinC corpus, every
// machine, `clients` concurrent clients, `passes` passes each, through
// the router. With kill >= 0, the primary ring owner of the kill-th
// served machine is hard-killed once half the requests have resolved —
// the primary, so the kill actually lands in the serving path and the
// router's failover is what keeps clients whole. It fails on any failed
// client request, on a cold shard, on an accounting mismatch, and (in
// the kill scenario) if no failover was actually exercised.
func RunClusterSV(gnames []string, replicas, replication, clients, passes, workers int, kill int) ([]SVRow, *Table, error) {
	if len(gnames) == 0 {
		gnames = []string{"x86", "jit64"}
	}
	if replicas <= 0 {
		replicas = 3
	}
	if replication <= 0 {
		replication = 2
	}
	if clients <= 0 {
		clients = 4
	}
	if passes <= 0 {
		passes = 2
	}
	ms, err := loadSVMachines(gnames)
	if err != nil {
		return nil, nil, err
	}
	nodesPerPass, jobsPerPass := 0, 0
	for _, sm := range ms {
		nodesPerPass += sm.nodes
		jobsPerPass += sm.jobs
	}

	bootStart := time.Now()
	fleet, err := BootCluster(gnames, replicas, replication, workers)
	if err != nil {
		return nil, nil, err
	}
	defer fleet.Close()
	bootTime := time.Since(bootStart)

	// Warm-before-traffic: the router must vouch for every shard.
	if resp, err := http.Get(fleet.RouterS.URL + "/readyz"); err != nil {
		return nil, nil, err
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("router /readyz answered %d before traffic", resp.StatusCode)
	}
	preStats, err := fleet.FleetStats()
	if err != nil {
		return nil, nil, err
	}
	if err := CheckWarmShards(preStats); err != nil {
		return nil, nil, err
	}

	// Resolve the kill victim: the primary owner of the kill-th machine,
	// read from the router's own shard view so the test kills exactly what
	// the router routes to first.
	victim := -1
	if kill >= 0 {
		primary := preStats.Shards[kill%len(preStats.Shards)].Owners[0]
		for i, p := range fleet.Peers {
			if p == primary {
				victim = i
			}
		}
		if victim < 0 {
			return nil, nil, fmt.Errorf("primary owner %s not in the peer list", primary)
		}
	}

	// Replay. Each client walks the machines in a rotated order (the
	// RunServer interleave) posting MinC units through the router.
	total := clients * passes * len(ms) * len(workload.All())
	var resolved, failed atomic.Int64
	var killOnce sync.Once
	httpc := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("ci-%d", c)
			for p := 0; p < passes; p++ {
				for mi := range ms {
					sm := ms[(mi+c+p)%len(ms)]
					for _, prog := range workload.All() {
						body, _ := json.Marshal(server.CompileRequest{Client: client, MinC: prog.Src})
						resp, err := httpc.Post(
							fleet.RouterS.URL+"/compile?machine="+sm.name,
							"application/json", bytes.NewReader(body))
						if err != nil {
							failed.Add(1)
							if errs[c] == nil {
								errs[c] = err
							}
							continue
						}
						if resp.StatusCode != http.StatusOK {
							failed.Add(1)
							if errs[c] == nil {
								errs[c] = fmt.Errorf("client %s: %s on %s answered %d", client, prog.Name, sm.name, resp.StatusCode)
							}
						}
						resp.Body.Close()
						if n := resolved.Add(1); victim >= 0 && n == int64(total/2) {
							killOnce.Do(func() { fleet.Kill(victim) })
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("client request failed (%d total failures): %w", failed.Load(), err)
		}
	}

	// Quiescent fleet: aggregate and check the distributed accounting.
	fs, err := fleet.FleetStats()
	if err != nil {
		return nil, nil, err
	}
	if err := CheckFleetAccounting(fs); err != nil {
		return nil, nil, err
	}
	wantJobs := int64(clients * passes * jobsPerPass)
	if kill < 0 && fs.Jobs != wantJobs {
		return nil, nil, fmt.Errorf("fleet served %d jobs, want exactly %d", fs.Jobs, wantJobs)
	}
	if kill >= 0 && fs.Routing.Failovers == 0 {
		return nil, nil, fmt.Errorf("killed the primary owner mid-traffic but the router never failed over")
	}

	// Telemetry-plane acceptance: the fleet is /metrics-scrapable, the
	// aggregated per-stage histograms carry real latencies, and (in the
	// kill scenario) the failover is visible as a router hop chain
	// naming the owners it tried.
	samples, hopEntry, err := CheckFleetTelemetry(fleet.RouterS.URL, fs, kill >= 0)
	if err != nil {
		return nil, nil, err
	}
	if SVTraceDump != "" {
		if err := dumpSlowlog(SVTraceDump, "router", fleet.Router.SlowlogEntries()); err != nil {
			return nil, nil, fmt.Errorf("writing -trace-out: %w", err)
		}
	}

	totalNodes := int64(clients * passes * nodesPerPass)
	ns := float64(elapsed.Nanoseconds()) / float64(totalNodes)
	label := strings.Join(gnames, "+")
	t := &Table{
		ID: "SV.cluster",
		Title: fmt.Sprintf("distributed SV: %d replicas (rf=%d) behind the router on %s, %d clients x %d passes",
			replicas, replication, label, clients, passes),
		Header: []string{"replicas", "rf", "clients", "requests", "failed", "jobs", "ns/node", "retries", "failovers", "boot"},
	}
	t.AddRow(itoa(replicas), itoa(replication), itoa(clients), itoa(total), itoa(int(failed.Load())),
		itoa(int(fs.Jobs)), f1(ns), itoa(int(fs.Routing.Retries)), itoa(int(fs.Routing.Failovers)),
		bootTime.Round(time.Millisecond).String())
	if victim >= 0 {
		t.Note("replica %d (primary owner of %s) hard-killed after %d resolved requests: zero client-visible failures, the router replayed interrupted jobs on the next owner", victim, ms[kill%len(ms)].name, total/2)
	}
	t.Note("every shard's every owner warm before the first request")
	t.Note("aggregated per-client counters verified to sum exactly to the aggregated fleet-global counters")
	t.Note("router /metrics parsed as well-formed prometheus text (%d samples); fleet-merged stage histograms carry nonzero label-stage p99", samples)
	if hopEntry != nil {
		hops := ""
		for i, h := range hopEntry.Hops {
			if i > 0 {
				hops += " -> "
			}
			hops += h.Peer
		}
		t.Note("failover visible in the router slowlog: request id=%d tried %s", hopEntry.ID, hops)
	}
	rows := []SVRow{{
		Grammar: label, Clients: clients, Workers: workers, Passes: passes,
		Jobs: fs.Jobs, Nodes: totalNodes, NsPerNode: ns, KNodesPerS: 1e6 / ns,
	}}
	return rows, t, nil
}
