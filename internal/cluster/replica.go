package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/server"
)

// ReplicaConfig assembles one fleet member.
type ReplicaConfig struct {
	// Self is this replica's base URL exactly as it appears in Peers —
	// ownership is computed by name, so the spelling must match.
	Self string
	// Peers is the full static replica list (including Self), identical on
	// every participant.
	Peers []string
	// Machines is the fleet's served machine set. The replica registers
	// all of them (any request can land anywhere mid-failover) but only
	// warms and publishes the ones the ring assigns it.
	Machines []string
	// Replication is the owners-per-machine factor (clamped to the fleet
	// size; <= 0 means 1).
	Replication int
	// VNodes configures the ring (DefaultVNodes if <= 0).
	VNodes int
	// StoreDir is the blob store directory.
	StoreDir string
	// PreloadDir, when set, seeds owned machines from <machine>.isel blobs
	// (an iselgen output directory) before the peer-fetch/AOT ladder runs.
	PreloadDir string
	// FallbackKind serves machines with no blob (and all non-owned
	// machines); KindOnDemand if empty.
	FallbackKind repro.Kind
	// MaxStates bounds fallback on-demand automata (0 = unlimited).
	MaxStates int
	// Server tunes the compile server (workers, queue, timeout, shed).
	Server server.Config
	// Client is the outbound peer client (nil = a default).
	Client *http.Client
	// Logf receives operational messages (nil = silent).
	Logf func(format string, args ...any)
}

// Replica is one fleet member: the PR 8 serving stack (registry + compile
// server + HTTP front end) plus the cluster surfaces — the blob exchange
// and the shared ring/membership view. Boot (NewReplica) leaves every
// owned machine warm-ready before the listener could accept a request:
// local blob, else a fetch from a peer owner, else ahead-of-time
// compilation whose result is published for the peers to fetch — the
// fleet pays table generation once, wherever it lands first.
type Replica struct {
	cfg     ReplicaConfig
	ring    *Ring
	members *Membership
	store   *BlobStore
	reg     *repro.Registry
	srv     *server.Server
	mux     *http.ServeMux
	owned   []string
	logf    func(string, ...any)
}

// NewReplica builds and boots the replica: ring, stores, registry with
// every fleet machine registered, owned machines warmed (see Replica),
// compile server, and the mounted HTTP surface.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.FallbackKind == "" {
		cfg.FallbackKind = repro.KindOnDemand
	}
	selfInPeers := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			selfInPeers = true
		}
	}
	if !selfInPeers {
		return nil, fmt.Errorf("cluster: replica self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("cluster: replica needs at least one machine")
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	store, err := NewBlobStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:     cfg,
		ring:    ring,
		members: NewMembership(cfg.Peers, cfg.Client),
		store:   store,
		reg:     repro.NewRegistry(),
		logf:    logf,
	}
	r.reg.SetLogger(logf)
	for _, m := range cfg.Machines {
		if ring.Owns(cfg.Self, m, cfg.Replication) {
			r.owned = append(r.owned, m)
		}
	}

	// Register the full fleet machine set. Owned machines get their warm
	// recipe below; the rest register lazily with the fallback kind so a
	// spillover request (every owner down) still compiles, just cold.
	for _, name := range cfg.Machines {
		rc, err := r.resolveOwned(name)
		if err != nil {
			return nil, err
		}
		if err := r.reg.AddMachine(rc.M, rc.Kind, rc.Opt); err != nil {
			return nil, err
		}
	}
	// Warm every owned machine now and promise it stays warm: /readyz
	// vouches for exactly the set the ring routes here.
	for _, name := range r.owned {
		if err := r.reg.Warm(name); err != nil {
			return nil, fmt.Errorf("cluster: warming owned machine %s: %w", name, err)
		}
		if err := r.reg.ExpectWarm(name); err != nil {
			return nil, err
		}
	}

	r.srv = server.New(r.reg, cfg.Server)
	r.mux = http.NewServeMux()
	ex := &Exchange{Store: store, Apply: r.applyBlob}
	ex.Mount(r.mux)
	r.mux.HandleFunc("GET /cluster", r.clusterInfo)
	r.mux.Handle("/", server.NewHandler(r.srv))
	return r, nil
}

// resolveOwned produces the serving recipe for name: owned machines walk
// the warm-state ladder (local blob → peer fetch → AOT compile +
// publish), everything else serves the fallback kind cold.
func (r *Replica) resolveOwned(name string) (Recipe, error) {
	owned := false
	for _, o := range r.owned {
		if o == name {
			owned = true
		}
	}
	if !owned {
		m, err := repro.LoadMachine(name)
		if err != nil {
			return Recipe{}, err
		}
		return Recipe{M: m, Kind: r.cfg.FallbackKind, Opt: repro.Options{MaxStates: r.cfg.MaxStates}}, nil
	}
	path, err := r.ensureBlob(name)
	if err != nil {
		if errors.Is(err, repro.ErrNoFixedClosure) {
			// No tabulable subset exists: there is nothing to exchange, the
			// on-demand engine is the machine's only shape. Still warm-owned.
			r.logf("cluster: %s has no fixed closure; owned but serving %s without a blob", name, r.cfg.FallbackKind)
			m, lerr := repro.LoadMachine(name)
			if lerr != nil {
				return Recipe{}, lerr
			}
			return Recipe{M: m, Kind: r.cfg.FallbackKind, Opt: repro.Options{MaxStates: r.cfg.MaxStates}, Detail: "on-demand: no fixed closure to tabulate"}, nil
		}
		return Recipe{}, err
	}
	return ResolveBlobRecipe(name, path)
}

// ensureBlob makes sure the local store holds name's artifact and returns
// its path — the warm-state ladder:
//
//  1. an artifact already in the store (a previous run's, or seeded);
//  2. a <name>.isel in PreloadDir (an iselgen deployment), validated and
//     adopted into the store;
//  3. a fetch from a peer owner (cheapest-first: whoever already paid
//     generation), validated end to end, corrupt replies skipped;
//  4. ahead-of-time compilation here — and the result is published to the
//     peer owners, so the fleet pays this step once.
func (r *Replica) ensureBlob(name string) (string, error) {
	if path, _, ok := r.store.Lookup(name); ok {
		return path, nil
	}
	m, err := repro.LoadMachine(name)
	if err != nil {
		return "", err
	}
	if r.cfg.PreloadDir != "" {
		if blob, err := gen.ReadFile(filepath.Join(r.cfg.PreloadDir, name+".isel")); err == nil {
			if _, verr := ValidateBlob(m, blob); verr == nil {
				return r.store.Put(name, blob)
			} else {
				r.logf("cluster: preload %s.isel rejected (%v); trying peers", name, verr)
			}
		}
	}
	for _, peer := range r.ring.Owners(name, r.cfg.Replication) {
		if peer == r.cfg.Self || !r.members.Alive(peer) {
			continue
		}
		blob, err := r.fetchBlob(peer, name)
		if err != nil {
			r.logf("cluster: fetching %s from %s: %v", name, peer, err)
			continue
		}
		if _, err := ValidateBlob(m, blob); err != nil {
			r.logf("cluster: peer %s sent a bad artifact for %s (%v); trying next", peer, name, err)
			continue
		}
		r.logf("cluster: %s warm-started from peer %s", name, peer)
		return r.store.Put(name, blob)
	}
	// Nobody has it: pay generation here, once, for the whole fleet.
	// Compile tabulates the fixed-operator closure whether or not the
	// grammar has dynamic rules, so one AOT path covers every machine
	// shape.
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		return "", err
	}
	path, err := r.store.Put(name, res.Blob)
	if err != nil {
		return "", err
	}
	r.logf("cluster: %s AOT-compiled here (%d states, %d blob bytes); publishing to peers", name, res.Stats.States, len(res.Blob))
	r.Publish(name)
	return path, nil
}

// fetchBlob GETs name's artifact from peer through the membership client.
func (r *Replica) fetchBlob(peer, name string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/blobs/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.members.Do(req)
	if err != nil {
		r.members.ReportDown(peer, err)
		return nil, err
	}
	defer resp.Body.Close()
	r.members.ReportUp(peer)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	return readAllLimited(resp.Body)
}

// Publish pushes name's stored artifact to every other peer owner via
// POST /preload, best effort: a peer that is down simply fetches it later
// through its own boot ladder. The receiving side validates, stores, and
// hot-swaps, so a published table set starts serving fleet-wide with zero
// downtime.
func (r *Replica) Publish(name string) {
	path, hdr, ok := r.store.Lookup(name)
	if !ok {
		return
	}
	blob, err := gen.ReadFile(path)
	if err != nil {
		return
	}
	for _, peer := range r.ring.Owners(name, r.cfg.Replication) {
		if peer == r.cfg.Self || !r.members.Alive(peer) {
			continue
		}
		if err := r.pushBlob(peer, name, blob); err != nil {
			r.logf("cluster: publishing %s (fp %016x) to %s: %v", name, hdr.Fingerprint, peer, err)
		}
	}
}

func (r *Replica) pushBlob(peer, name string, blob []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		peer+"/preload?machine="+name, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.members.Do(req)
	if err != nil {
		r.members.ReportDown(peer, err)
		return err
	}
	defer resp.Body.Close()
	r.members.ReportUp(peer)
	if resp.StatusCode != http.StatusOK {
		body, _ := readAllLimited(resp.Body)
		return fmt.Errorf("peer answered %d: %s", resp.StatusCode, body)
	}
	return nil
}

// applyBlob is the Exchange.Apply hook: a freshly stored artifact is
// resolved to its recipe and the machine hot-swapped onto it (PR 8 swap
// semantics — the old version drains, a failed build keeps it serving).
func (r *Replica) applyBlob(machine, path string) (int, error) {
	rc, err := ResolveBlobRecipe(machine, path)
	if err != nil {
		return 0, err
	}
	if err := r.reg.SwapMachine(rc.M, rc.Kind, rc.Opt); err != nil {
		return 0, err
	}
	for _, st := range r.reg.Status() {
		if st.Machine == machine {
			r.logf("cluster: %s preloaded from a peer, now v%d (%s)", machine, st.Version, rc.Detail)
			return st.Version, nil
		}
	}
	return 0, nil
}

// ClusterInfo is the body of a replica's GET /cluster: its ring view, for
// operators checking that the fleet agrees on ownership.
type ClusterInfo struct {
	Self        string              `json:"self"`
	Peers       []string            `json:"peers"`
	Replication int                 `json:"replication"`
	Owned       []string            `json:"owned"`
	Owners      map[string][]string `json:"owners"`
	Health      []PeerHealth        `json:"health"`
}

func (r *Replica) clusterInfo(w http.ResponseWriter, req *http.Request) {
	info := ClusterInfo{
		Self:        r.cfg.Self,
		Peers:       r.ring.Members(),
		Replication: r.replication(),
		Owned:       append([]string(nil), r.owned...),
		Owners:      map[string][]string{},
		Health:      r.members.Health(),
	}
	for _, m := range r.cfg.Machines {
		info.Owners[m] = r.ring.Owners(m, r.cfg.Replication)
	}
	writeJSON(w, info)
}

func (r *Replica) replication() int {
	n := r.cfg.Replication
	if n <= 0 {
		n = 1
	}
	if n > len(r.cfg.Peers) {
		n = len(r.cfg.Peers)
	}
	return n
}

// Handler is the replica's full HTTP surface: the compile server routes
// plus the blob exchange and GET /cluster.
func (r *Replica) Handler() http.Handler { return r.mux }

// Server exposes the compile server (stats, shutdown).
func (r *Replica) Server() *server.Server { return r.srv }

// Registry exposes the serving registry.
func (r *Replica) Registry() *repro.Registry { return r.reg }

// Store exposes the blob store.
func (r *Replica) Store() *BlobStore { return r.store }

// Owned lists the machines the ring assigns this replica.
func (r *Replica) Owned() []string { return append([]string(nil), r.owned...) }

// StartProbing launches active peer health probing (optional; passive
// marking works without it).
func (r *Replica) StartProbing(every time.Duration) { r.members.StartProbing(every) }

// Shutdown drains the compile server and stops probing.
func (r *Replica) Shutdown() {
	r.members.Stop()
	r.srv.Shutdown()
}
