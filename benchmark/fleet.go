package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// fleetReplication makes both replicas own every machine, so each serves
// its blob-backed engine warm.
const fleetReplication = 2

// replicaNames are the replicas' fixed host names. The ring hashes them:
// with these two it routes x86 and jit64 to north and mips, sparc and
// alpha to oak, which splits the compile work about evenly, and fixed
// names keep that split in every run whatever ports the listeners get.
var replicaNames = []string{"north", "oak"}

// fleetRate is the open-loop arrival rate in requests per second: a third
// of the fleet's closed-loop capacity with two clients, some 5,400
// requests per second on the two-core machine README.md describes. At half
// the capacity the two senders saturate in bursts and the tail stops
// repeating from run to run; at a fifth of it the tail repeated no better.
const fleetRate = 1800

// lagSamples is how many send delays each sender keeps.
const lagSamples = 1 << 15

// swapEvery is the period of the hot swaps a run posts. Each swaps the
// next machine of a seeded cycle through all five, on the replica the
// router sends that machine's traffic to.
const swapEvery = 2 * time.Second

// lateHandler answers 503 until its replica has booted, the way a booting
// fleet member looks to its peers.
type lateHandler struct{ h atomic.Value }

type handlerBox struct{ h http.Handler }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if b, ok := l.h.Load().(handlerBox); ok {
		b.h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// fleet is two replicas behind the consistent-hash router, all on
// loopback in this process.
type fleet struct {
	// peers are the replicas' fixed names. The ring hashes them, so fixed
	// names shard the machines the same way in every run, whatever ports
	// the listeners got; addrs maps each name's host:port to its
	// listener, for the dialer of every client that calls a replica.
	peers      []string
	addrs      map[string]string
	lbs        []*loopback
	reps       []*cluster.Replica
	router     *cluster.Router
	rlb        *loopback
	ring       *cluster.Ring
	peerClient *http.Client
}

// bootFleet opens every listener, then boots the replicas one after the
// other, so the first pays AOT table generation and the second fetches
// each blob from it. With a tracer, the two boots are recorded as spans.
func bootFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{addrs: map[string]string{}}
	f.peerClient = newClient(8, f.dial)
	lates := make([]*lateHandler, len(replicaNames))
	for i := range lates {
		lates[i] = &lateHandler{}
		lb, err := listen(lates[i])
		if err != nil {
			f.close()
			return nil, err
		}
		f.lbs = append(f.lbs, lb)
		f.peers = append(f.peers, "http://"+replicaNames[i])
		f.addrs[replicaNames[i]+":80"] = strings.TrimPrefix(lb.url, "http://")
	}
	for i := range lates {
		t0 := time.Now()
		rep, err := cluster.NewReplica(cluster.ReplicaConfig{
			Self: f.peers[i], Peers: f.peers, Machines: machineNames,
			Replication: fleetReplication, StoreDir: filepath.Join(dir, fmt.Sprintf("replica%d", i)),
			Server: server.Config{Workers: 1}, Client: f.peerClient,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		name := spBootPeer
		if i == 0 {
			name = spBootFirst
		}
		tr.record(name, -1, tr.newReq(), -1, t0, time.Now(), 1)
		f.reps = append(f.reps, rep)
		lates[i].h.Store(handlerBox{rep.Handler()})
	}
	var err error
	if f.ring, err = cluster.NewRing(f.peers, 0); err != nil {
		f.close()
		return nil, err
	}
	f.router, err = cluster.NewRouter(cluster.RouterConfig{
		Peers: f.peers, Machines: machineNames, Replication: fleetReplication, Client: f.peerClient,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.rlb, err = listen(f.router.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// dial connects to the listener behind a replica's name.
func (f *fleet) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if a, ok := f.addrs[addr]; ok {
		addr = a
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

func (f *fleet) close() {
	if f.rlb != nil {
		f.rlb.close()
	}
	if f.router != nil {
		f.router.Stop()
	}
	for _, lb := range f.lbs {
		lb.close()
	}
	for _, r := range f.reps {
		r.Shutdown()
	}
	f.peerClient.CloseIdleConnections()
}

// owner is the URL the router tries first for machine m.
func (f *fleet) owner(m int) string {
	return f.ring.Owners(machineNames[m], fleetReplication)[0]
}

// firstTryRatio is the share of proxied requests the router's first
// candidate answered, from its GET /stats.
func (f *fleet) firstTryRatio() (float64, error) {
	resp, err := f.peerClient.Get(f.rlb.url + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var fs cluster.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return 0, err
	}
	if fs.Routing.Proxied == 0 {
		return 0, fmt.Errorf("router proxied nothing")
	}
	return float64(fs.Routing.Proxied-fs.Routing.Failovers) / float64(fs.Routing.Proxied), nil
}

// swap posts one hot swap of machine m to the replica serving it.
func (f *fleet) swap(c *http.Client, m int) error {
	resp, err := c.Post(f.owner(m)+"/swap?machine="+machineNames[m], "application/json", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("swap %s: status %d: %s", machineNames[m], resp.StatusCode, body)
	}
	return nil
}

// fleetInst is the routed fleet under open-loop load plus periodic swaps.
type fleetInst struct {
	c       *corpus
	f       *fleet
	client  *http.Client
	arrival []time.Duration // scheduled send offsets, Poisson at fleetRate
	seq     []*httpCase
	swaps   []int // machine of each swap, in order
	tr      *tracer
}

func planFleet(e *env) (func() (instance, error), string, error) {
	rng := rand.New(rand.NewPCG(e.seed, 5))
	var arrival []time.Duration
	var ids []int
	for t := 0.0; t < e.seconds.Seconds(); {
		t += rng.ExpFloat64() / fleetRate
		arrival = append(arrival, time.Duration(t*1e9))
		ids = append(ids, int(t*1e9))
	}
	seq := e.c.requestMix(rng, requestDraws)
	var swaps []int
	for len(swaps) < int(e.seconds/swapEvery) {
		swaps = append(swaps, rng.Perm(len(machineNames))...)
	}
	ids = append(ids, swaps...)
	boots := 0
	setup := func() (instance, error) {
		boots++
		dir := filepath.Join(e.tmp, fmt.Sprintf("fleet%d", boots))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := bootFleet(dir, e.tr)
		if err != nil {
			return nil, err
		}
		fi := &fleetInst{c: e.c, f: f, client: newClient(2*clients, f.dial), arrival: arrival, seq: seq, swaps: swaps, tr: e.tr}
		if err := warmHTTP(fi.client, f.rlb.url+"/compile", e.c); err != nil {
			fi.close()
			return nil, err
		}
		return fi, nil
	}
	return setup, hashSeq(ids, httpIDs(seq)), nil
}

func (fi *fleetInst) close() {
	fi.client.CloseIdleConnections()
	fi.f.close()
}

// run sends the arrivals due within d from two sender goroutines, each
// taking the next arrival, sleeping until it is due and sending it through
// the router. A third goroutine posts the seeded swaps. Traced, each
// request is followed by the same body sent straight to its owner.
func (fi *fleetInst) run(d time.Duration, tr *tracer) *loopResult {
	parts := make([]*loopResult, clients+1)
	for g := 0; g < clients; g++ {
		parts[g] = &loopResult{
			lat: []*reservoir{newReservoir(latencySamples/clients, uint64(g)+7)},
			lag: []*reservoir{newReservoir(lagSamples, uint64(g)+11)},
		}
	}
	var next atomic.Int64
	res := &loopResult{win: startWindow()}
	start := res.win.start
	var wg sync.WaitGroup
	for _, part := range parts[:clients] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var freeAt time.Time
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fi.arrival) || fi.arrival[i] >= d || (tr != nil && tr.full()) {
					return
				}
				if tr != nil && i%2 == 1 {
					continue // traced, each arrival sends two requests
				}
				hc := fi.seq[i%len(fi.seq)]
				due := start.Add(fi.arrival[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else if -wait > d/10 {
					// Overload: the backlog is beyond any useful latency;
					// stop rather than outrun the run's time budget.
					return
				}
				req := tr.newReq()
				root := tr.begin(spRequest, -1, req, hc.m)
				sent := time.Now()
				tr.record(spLag, root, req, hc.m, due, sent, 1)
				s := tr.begin(spRouted, root, req, hc.m)
				err := post(fi.client, fi.f.rlb.url+"/compile", hc, 0, 0, &buf)
				done := time.Now()
				// Latency counts from the due time when this sender was
				// still busy with its previous request then, so a stall
				// charges every request it delays; a sender that slept
				// until due counts from its send, leaving out the timer's
				// own lateness.
				from := sent
				if freeAt.After(due) {
					from = due
				}
				freeAt = done
				part.lat[0].add(float64(done.Sub(from).Nanoseconds()) / 1e3)
				part.lag[0].add(float64(sent.Sub(due).Nanoseconds()) / 1e6)
				part.count(hc.nodes, hc.forests, err == nil)
				tr.end(s, hc.nodes)
				tr.end(root, hc.nodes)
				tr.setStart(root, from)
				if tr != nil {
					s = tr.begin(spDirect, -1, req, hc.m)
					err := post(fi.client, fi.f.owner(hc.m)+"/compile", hc, 0, 0, &buf)
					tr.end(s, hc.nodes)
					part.count(0, 0, err == nil)
				}
			}
		}()
	}
	swapPart := &loopResult{}
	parts[clients] = swapPart
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, m := range fi.swaps {
			at := swapEvery * time.Duration(k+1)
			if at >= d {
				break
			}
			time.Sleep(time.Until(start.Add(at)))
			s := tr.begin(spSwap, -1, tr.newReq(), m)
			err := fi.f.swap(fi.client, m)
			tr.end(s, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			swapPart.count(0, 0, err == nil)
		}
	}()
	wg.Wait()
	res.win.finish()
	for _, p := range parts {
		res.add(p)
	}
	if tr != nil {
		if r, err := fi.f.firstTryRatio(); err == nil {
			res.setValue("cluster.first_try_ratio", r)
		} else {
			res.count(0, 0, false)
		}
	}
	return res
}
