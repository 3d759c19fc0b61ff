package cluster

import (
	"fmt"
	"net/http"
	"time"

	"repro"
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
	// warms the ones the ring assigns it.
	Machines []string
	// Replication is the owners-per-machine factor (clamped to the fleet
	// size; <= 0 means 1).
	Replication int
	// VNodes configures the ring (DefaultVNodes if <= 0).
	VNodes int
	// StoreDir is ignored: a replica keeps no blob store, because it
	// computes every table it serves that PreloadDir does not hold.
	StoreDir string
	// PreloadDir, when set, serves each owned machine whose <machine>.isel
	// blob (an iselgen output directory) it holds from those tables, as
	// `iselserver -preload` does.
	PreloadDir string
	// FallbackKind serves the machines this replica does not own;
	// KindOnDemand if empty.
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

// Replica is one fleet member: the standalone serving stack (registry +
// compile server + HTTP front end) plus the shared ring/membership view.
// Boot (NewReplica) leaves every owned machine warm-ready before the
// listener could accept a request, from local tables only: a
// PreloadDir blob, else the fixed-operator closure computed here. No
// peer is asked for anything at boot.
type Replica struct {
	cfg     ReplicaConfig
	ring    *Ring
	members *Membership
	reg     *repro.Registry
	srv     *server.Server
	mux     *http.ServeMux
	owned   []string
	logf    func(string, ...any)
}

// NewReplica builds and boots the replica: ring, registry with every
// fleet machine registered, owned machines warmed (see Replica), compile
// server, and the mounted HTTP surface.
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
	r := &Replica{
		cfg:     cfg,
		ring:    ring,
		members: NewMembership(cfg.Peers, cfg.Client),
		reg:     repro.NewRegistry(),
		logf:    logf,
	}
	r.reg.SetLogger(logf)

	// Register the full fleet machine set. Owned machines get their warm
	// recipe; the rest register lazily with the fallback kind so a
	// spillover request (every owner down) still compiles, just cold.
	for _, name := range cfg.Machines {
		owned := ring.Owns(cfg.Self, name, cfg.Replication)
		rc, err := r.recipe(name, owned)
		if err != nil {
			return nil, err
		}
		if err := r.reg.AddMachine(rc.M, rc.Kind, rc.Opt); err != nil {
			return nil, err
		}
		if owned {
			r.owned = append(r.owned, name)
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
	r.mux.HandleFunc("GET /cluster", r.clusterInfo)
	r.mux.Handle("/", server.NewHandler(r.srv))
	return r, nil
}

// recipe resolves how name is served. An unowned machine serves the
// fallback kind cold. An owned one resolves as under `iselserver
// -preload`: its PreloadDir blob when there is one, else KindHybrid
// over the fixed-operator closure computed in-process. A blob whose
// header does not resolve is logged and skipped; one whose tables fail
// to load is quarantined by the registry, which then builds the same
// engine without it.
func (r *Replica) recipe(name string, owned bool) (Recipe, error) {
	if !owned {
		return ResolveRecipe(name, "", string(r.cfg.FallbackKind), r.cfg.MaxStates)
	}
	rc, err := ResolveRecipe(name, r.cfg.PreloadDir, string(repro.KindHybrid), 0)
	if err != nil {
		r.logf("cluster: %s: preload skipped (%v); computing its tables here", name, err)
		rc, err = ResolveRecipe(name, "", string(repro.KindHybrid), 0)
	}
	return rc, err
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
// plus GET /cluster.
func (r *Replica) Handler() http.Handler { return r.mux }

// Server exposes the compile server (stats, shutdown).
func (r *Replica) Server() *server.Server { return r.srv }

// Registry exposes the serving registry.
func (r *Replica) Registry() *repro.Registry { return r.reg }

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
