package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro"
	"repro/internal/automaton"
	"repro/internal/gen"
)

// BlobStore is a replica's directory of content-addressed `.isel`
// artifacts: one blob per machine, stored as <machine>@<fingerprint>.isel
// so the file name itself carries the content identity the exchange
// negotiates on. Put replaces a machine's previous artifact atomically
// (temp file + rename), so a reader never sees a torn blob.
type BlobStore struct {
	dir string
	mu  sync.Mutex
}

// NewBlobStore opens (creating if needed) the store directory.
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: blob store: %w", err)
	}
	return &BlobStore{dir: dir}, nil
}

// Dir returns the store directory.
func (s *BlobStore) Dir() string { return s.dir }

// blobFile names machine's artifact for fingerprint fp.
func (s *BlobStore) blobFile(machine string, fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s@%016x.isel", machine, fp))
}

// Lookup returns the stored artifact for machine, if any, with its
// header. A stored file that no longer parses is quarantined to `.bad`
// and reported as absent — the same corrupt-artifact policy the registry
// applies to preload blobs.
func (s *BlobStore) Lookup(machine string) (path string, hdr *gen.Header, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(machine)
}

func (s *BlobStore) lookupLocked(machine string) (string, *gen.Header, bool) {
	matches, _ := filepath.Glob(filepath.Join(s.dir, machine+"@*.isel"))
	for _, p := range matches {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		hdr, err := gen.ReadHeader(f)
		f.Close()
		if err != nil {
			quarantine(p, err)
			continue
		}
		return p, hdr, true
	}
	return "", nil, false
}

// Put stores blob as machine's artifact, replacing any previous
// fingerprint for the machine, and returns the stored path. The blob's
// header must parse (callers validate content before putting; Put only
// guards the file-name contract).
func (s *BlobStore) Put(machine string, blob []byte) (string, error) {
	hdr, err := gen.ReadHeader(bytes.NewReader(blob))
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.blobFile(machine, hdr.Fingerprint)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	// Drop superseded fingerprints: one machine, one current artifact.
	matches, _ := filepath.Glob(filepath.Join(s.dir, machine+"@*.isel"))
	for _, p := range matches {
		if p != path {
			os.Remove(p)
		}
	}
	return path, nil
}

// quarantine renames a corrupt artifact to <path>.bad (best effort) so
// the bytes survive for diagnosis without ever being served again.
func quarantine(path string, cause error) {
	os.Rename(path, path+".bad")
	_ = cause
}

// ValidateBlob checks a transferred blob end to end against machine m:
// the header must parse, the fingerprint must match m's full grammar or
// its fixed-cost subset, the body must decode cleanly (checksum,
// structure), and the tables must pass automaton.ValidateTables — the
// validator the engines run at construction — against the matched
// grammar. It returns the header. This runs on every wire transfer and
// preload, so a blob no engine would serve is rejected before it can
// reach a store or a registry.
func ValidateBlob(m *repro.Machine, blob []byte) (*gen.Header, error) {
	hdr, err := gen.ReadHeader(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	served, err := electMachine(m, hdr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ts, err := gen.Decode(served.Grammar, blob)
	if err != nil {
		return nil, err
	}
	if _, err := automaton.ValidateTables(served.Grammar, ts); err != nil {
		return nil, err
	}
	return hdr, nil
}

// etag formats a fingerprint the way the exchange quotes it on the wire.
func etag(fp uint64) string { return fmt.Sprintf("%q", fmt.Sprintf("%016x", fp)) }

// Exchange is the replica-side blob-exchange surface:
//
//	GET  /blobs/{machine}  the machine's current artifact
//	                       (ETag = grammar fingerprint; an If-None-Match
//	                       that names the stored fingerprint gets 304 and
//	                       no bytes — an up-to-date peer re-ships nothing)
//	POST /preload?machine=x  accept one artifact: validated end to end,
//	                       stored, and the machine hot-swapped onto it
//	                       (zero downtime, PR 8 swap semantics); corrupt
//	                       transfers are quarantined and answered 422
//
// Apply is invoked after a successful preload store; replicas wire it to
// the registry swap. A nil Apply stores without swapping (a pure cache
// node).
type Exchange struct {
	Store *BlobStore
	// Apply hot-swaps machine onto the stored artifact at path. It
	// returns the now-serving table-set version (0 if unknown).
	Apply func(machine, path string) (version int, err error)
}

// Mount registers the exchange routes on mux.
func (e *Exchange) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /blobs/{machine}", e.getBlob)
	mux.HandleFunc("POST /preload", e.preload)
}

func (e *Exchange) getBlob(w http.ResponseWriter, r *http.Request) {
	machine := r.PathValue("machine")
	path, hdr, ok := e.Store.Lookup(machine)
	if !ok {
		httpError(w, http.StatusNotFound, "no artifact for machine %q", machine)
		return
	}
	tag := etag(hdr.Fingerprint)
	w.Header().Set("ETag", tag)
	w.Header().Set("X-Isel-Fingerprint", fmt.Sprintf("%016x", hdr.Fingerprint))
	// Content negotiation on the fingerprint: a peer that already holds
	// this exact table set sends it back and gets 304 — nothing re-ships.
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		for _, cand := range strings.Split(inm, ",") {
			if strings.TrimSpace(cand) == tag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

func (e *Exchange) preload(w http.ResponseWriter, r *http.Request) {
	machine := r.URL.Query().Get("machine")
	if machine == "" {
		httpError(w, http.StatusBadRequest, "preload needs ?machine=")
		return
	}
	m, err := repro.LoadMachine(machine)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	blob, err := readLimited(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading artifact: %v", err)
		return
	}
	hdr, err := ValidateBlob(m, blob)
	if err != nil {
		// A corrupt transfer is quarantined like any corrupt artifact:
		// the bytes land beside the store as .bad for diagnosis, the
		// machine keeps serving whatever it served.
		bad := filepath.Join(e.Store.Dir(), machine+".posted.isel")
		if werr := os.WriteFile(bad, blob, 0o644); werr == nil {
			quarantine(bad, err)
		}
		httpError(w, http.StatusUnprocessableEntity, "rejected artifact for %s: %v", machine, err)
		return
	}
	path, err := e.Store.Put(machine, blob)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "storing artifact: %v", err)
		return
	}
	version := 0
	if e.Apply != nil {
		if version, err = e.Apply(machine, path); err != nil {
			httpError(w, http.StatusInternalServerError, "stored %s but swap failed (old tables keep serving): %v", machine, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"machine":     machine,
		"fingerprint": fmt.Sprintf("%016x", hdr.Fingerprint),
		"version":     version,
	})
}

// maxTransferBytes bounds one blob transfer, mirroring gen's decode
// bound.
const maxTransferBytes = 1 << 28

func readLimited(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return readAllLimited(r.Body)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
