package gen

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// The process-global preload store: `.isel` blobs compiled into the
// binary. Generated Go source (GoSource) registers its embedded blob here
// from an init function; the table-backed engine kinds look the
// grammar's fingerprint up before falling back to compiling the closure
// in-process. Keyed by fingerprint, so registration is independent of how
// a grammar gets loaded or renamed.

var (
	preMu    sync.RWMutex
	preBlobs = map[uint64][]byte{}
	preNames = map[uint64]string{}
)

// Register adds a blob to the preload store, keyed by the fingerprint in
// its header. Registering two blobs for one fingerprint fails (identical
// grammars compile to identical blobs, so a duplicate is a build mistake,
// not a refresh).
func Register(blob []byte) (*Header, error) {
	h, err := ReadHeader(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	preMu.Lock()
	defer preMu.Unlock()
	if prev, dup := preNames[h.Fingerprint]; dup {
		return nil, fmt.Errorf("gen: tables for fingerprint %016x registered twice (%q and %q)", h.Fingerprint, prev, h.Grammar)
	}
	preBlobs[h.Fingerprint] = blob
	preNames[h.Fingerprint] = h.Grammar
	return h, nil
}

// MustRegister is Register for generated init functions.
func MustRegister(blob []byte) {
	if _, err := Register(blob); err != nil {
		panic(err)
	}
}

// Lookup returns the registered blob for a grammar fingerprint.
func Lookup(fp uint64) ([]byte, bool) {
	preMu.RLock()
	defer preMu.RUnlock()
	b, ok := preBlobs[fp]
	return b, ok
}

// Registered lists the preloaded grammar names, sorted — diagnostics for
// front ends reporting what the binary ships.
func Registered() []string {
	preMu.RLock()
	defer preMu.RUnlock()
	names := make([]string, 0, len(preNames))
	for _, n := range preNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
