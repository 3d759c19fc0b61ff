package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Membership is the fleet view of one participant: a static peer list
// (there is no coordination service — the `-peers` flag is the
// membership) with liveness layered on top two ways. Passively, callers
// report outcomes of their own peer calls (ReportUp/ReportDown), so a
// router that just watched a connection die routes around the peer
// immediately. Actively, a background prober GETs each peer's /healthz so
// a recovered peer comes back without waiting for traffic to re-try it.
//
// Liveness never changes ownership (the Ring is immutable); it only
// changes which owner the router tries first.
type Membership struct {
	peers  []string
	client *http.Client

	mu   sync.RWMutex
	down map[string]string // peer -> last failure (empty/absent = alive)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMembership builds the view. client nil uses a dedicated client with
// a short per-call timeout for probes (peer *data* calls bring their own
// contexts).
func NewMembership(peers []string, client *http.Client) *Membership {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &Membership{
		peers:  append([]string(nil), peers...),
		client: client,
		down:   map[string]string{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Peers returns the static peer list.
func (m *Membership) Peers() []string { return append([]string(nil), m.peers...) }

// Alive reports the current liveness belief for peer. Unknown peers
// (never probed, never reported) count as alive: optimism costs one
// failed attempt, pessimism would strand a healthy peer.
func (m *Membership) Alive(peer string) bool {
	m.mu.RLock()
	_, isDown := m.down[peer]
	m.mu.RUnlock()
	return !isDown
}

// ReportDown records a failed peer call (passive detection).
func (m *Membership) ReportDown(peer string, cause error) {
	m.mu.Lock()
	m.down[peer] = fmt.Sprint(cause)
	m.mu.Unlock()
}

// ReportUp records a successful peer call.
func (m *Membership) ReportUp(peer string) {
	m.mu.Lock()
	delete(m.down, peer)
	m.mu.Unlock()
}

// PeerHealth is one peer's liveness belief.
type PeerHealth struct {
	Peer  string `json:"peer"`
	Alive bool   `json:"alive"`
	Error string `json:"error,omitempty"`
}

// Health snapshots every peer's liveness, in peer-list order.
func (m *Membership) Health() []PeerHealth {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]PeerHealth, 0, len(m.peers))
	for _, p := range m.peers {
		cause, isDown := m.down[p]
		out = append(out, PeerHealth{Peer: p, Alive: !isDown, Error: cause})
	}
	return out
}

// StartProbing launches the active prober: every interval, each peer's
// /healthz is probed and the liveness belief updated. Stop with Stop.
func (m *Membership) StartProbing(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.ProbeAll()
			}
		}
	}()
}

// ProbeAll probes every peer once, synchronously (the prober's body;
// exported so boots and tests can force a refresh).
func (m *Membership) ProbeAll() {
	var wg sync.WaitGroup
	for _, p := range m.peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
			if err != nil {
				m.ReportDown(peer, err)
				return
			}
			resp, err := m.Do(req)
			if err != nil {
				m.ReportDown(peer, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				m.ReportDown(peer, fmt.Errorf("healthz %d", resp.StatusCode))
				return
			}
			m.ReportUp(peer)
		}(p)
	}
	wg.Wait()
}

// Stop halts the prober (idempotent; a Membership that never probed can
// still be stopped).
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// Do performs one outbound peer call through the shared client. Every
// peer call in the tier funnels here so the slow-peer fault point covers
// them all: a Delay fault stalls the call, an Err fault fails it the way
// a partition would.
func (m *Membership) Do(req *http.Request) (*http.Response, error) {
	if err := faultinject.Fire(faultinject.PeerSlow); err != nil {
		return nil, fmt.Errorf("cluster: peer call: %w", err)
	}
	return m.client.Do(req)
}

// maxPeerResponseBytes bounds one peer response body: a relayed compile
// answer or a scraped /stats, both far below it.
const maxPeerResponseBytes = 1 << 28

// readAllLimited reads a peer response body under maxPeerResponseBytes,
// so a runaway peer cannot balloon memory.
func readAllLimited(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxPeerResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxPeerResponseBytes {
		return nil, fmt.Errorf("cluster: peer response exceeds %d bytes", maxPeerResponseBytes)
	}
	return data, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
