package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/gen"
)

// demoBlob compiles the demo machine's tables once per test that needs a
// real artifact.
func demoBlob(t *testing.T) (*repro.Machine, []byte) {
	t.Helper()
	m, err := repro.LoadMachine("demo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m, res.Blob
}

func TestBlobStorePutLookup(t *testing.T) {
	store, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Lookup("demo"); ok {
		t.Fatal("empty store claims an artifact")
	}
	_, blob := demoBlob(t)
	path, err := store.Put("demo", blob)
	if err != nil {
		t.Fatal(err)
	}
	got, hdr, ok := store.Lookup("demo")
	if !ok || got != path {
		t.Fatalf("Lookup = %q, %v; want %q", got, ok, path)
	}
	if hdr.Grammar == "" || hdr.Fingerprint == 0 {
		t.Fatalf("header not parsed: %+v", hdr)
	}
	if !strings.Contains(filepath.Base(path), "@") || !strings.HasSuffix(path, ".isel") {
		t.Fatalf("store file %q is not fingerprint-named", path)
	}
	// A second Put of the same content replaces, never duplicates.
	if _, err := store.Put("demo", blob); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(store.Dir(), "demo@*.isel"))
	if len(matches) != 1 {
		t.Fatalf("store holds %d artifacts for demo, want 1: %v", len(matches), matches)
	}
}

func TestBlobStoreQuarantinesCorrupt(t *testing.T) {
	store, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(store.Dir(), "demo@0000000000000bad.isel")
	if err := os.WriteFile(bad, []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Lookup("demo"); ok {
		t.Fatal("corrupt artifact served")
	}
	if _, err := os.Stat(bad + ".bad"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact still in place")
	}
}

func TestValidateBlob(t *testing.T) {
	m, blob := demoBlob(t)
	if _, err := ValidateBlob(m, blob); err != nil {
		t.Fatalf("good blob rejected: %v", err)
	}
	if _, err := ValidateBlob(m, blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := ValidateBlob(m, flipped); err == nil {
		t.Fatal("bit-flipped blob accepted")
	}
	other, err := repro.LoadMachine("jit64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBlob(other, blob); err == nil {
		t.Fatal("blob for another machine accepted")
	}
	x86, good, bad := badTransitionBlob(t)
	if _, err := ValidateBlob(x86, good); err != nil {
		t.Fatalf("good x86 blob rejected: %v", err)
	}
	if _, err := ValidateBlob(x86, bad); err == nil || !strings.Contains(err.Error(), "transition references state") {
		t.Fatalf("blob with an out-of-range transition: err = %v, want the table validator's rejection", err)
	}
}

// badTransitionBlob compiles x86's tables and returns them twice: as
// compiled, and re-encoded with one transition cell pointing past the
// last state — framing, checksum and fingerprint all valid, so only table
// validation can tell.
func badTransitionBlob(t *testing.T) (m *repro.Machine, good, bad []byte) {
	t.Helper()
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Tables
	for op := range ts.T2 {
		if len(ts.T2[op]) > 0 {
			ts.T2[op][0] = int32(ts.NumStates() + 5)
			break
		}
	}
	bad, err = gen.EncodeBytes(m.Grammar, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m, res.Blob, bad
}

// exchangeServer mounts an Exchange (store seeded with demo's blob) on a
// test server, recording Apply calls.
func exchangeServer(t *testing.T) (*httptest.Server, *BlobStore, *[]string) {
	t.Helper()
	store, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	ex := &Exchange{
		Store: store,
		Apply: func(machine, path string) (int, error) {
			applied = append(applied, machine+":"+filepath.Base(path))
			return 7, nil
		},
	}
	mux := http.NewServeMux()
	ex.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, store, &applied
}

func TestExchangeGetBlobAndContentNegotiation(t *testing.T) {
	ts, store, _ := exchangeServer(t)
	_, blob := demoBlob(t)
	if _, err := store.Put("demo", blob); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/blobs/demo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllLimited(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /blobs/demo = %d", resp.StatusCode)
	}
	if !bytes.Equal(body, blob) {
		t.Fatalf("served %d bytes, want the %d-byte artifact", len(body), len(blob))
	}
	tag := resp.Header.Get("ETag")
	if tag == "" || resp.Header.Get("X-Isel-Fingerprint") == "" {
		t.Fatalf("missing fingerprint headers: %v", resp.Header)
	}

	// The fingerprint content negotiation: an up-to-date peer re-ships
	// nothing.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/blobs/demo", nil)
	req.Header.Set("If-None-Match", `"feedface", `+tag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match with matching fingerprint = %d, want 304", resp.StatusCode)
	}

	// A stale fingerprint still gets the bytes.
	req.Header.Set("If-None-Match", `"feedface"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("If-None-Match with stale fingerprint = %d, want 200", resp.StatusCode)
	}

	// Unknown machine: 404.
	resp, err = http.Get(ts.URL + "/blobs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /blobs/nosuch = %d, want 404", resp.StatusCode)
	}
}

func TestExchangePreload(t *testing.T) {
	ts, store, applied := exchangeServer(t)
	_, blob := demoBlob(t)

	resp, err := http.Post(ts.URL+"/preload?machine=demo", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preload = %d (%v)", resp.StatusCode, out)
	}
	if out["machine"] != "demo" || out["version"] != float64(7) {
		t.Fatalf("preload response %v", out)
	}
	if _, _, ok := store.Lookup("demo"); !ok {
		t.Fatal("preloaded artifact not stored")
	}
	if len(*applied) != 1 || !strings.HasPrefix((*applied)[0], "demo:") {
		t.Fatalf("Apply calls %v", *applied)
	}

	// Missing ?machine=.
	resp, err = http.Post(ts.URL+"/preload", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("preload without machine = %d, want 400", resp.StatusCode)
	}

	// Unknown machine name: 404.
	resp, err = http.Post(ts.URL+"/preload?machine=nosuch", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("preload of unknown machine = %d, want 404", resp.StatusCode)
	}
}

func TestExchangePreloadQuarantinesCorrupt(t *testing.T) {
	ts, store, applied := exchangeServer(t)
	_, blob := demoBlob(t)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff

	resp, err := http.Post(ts.URL+"/preload?machine=demo", "application/octet-stream", bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt preload = %d, want 422", resp.StatusCode)
	}
	if len(*applied) != 0 {
		t.Fatalf("corrupt preload reached Apply: %v", *applied)
	}
	if _, _, ok := store.Lookup("demo"); ok {
		t.Fatal("corrupt preload reached the store")
	}
	bads, _ := filepath.Glob(filepath.Join(store.Dir(), "*.bad"))
	if len(bads) != 1 {
		t.Fatalf("corrupt transfer not quarantined beside the store: %v", bads)
	}
}

// TestExchangePreloadRejectsBadTables: a POSTed blob whose framing is
// valid but whose tables no engine would serve (a transition past the
// last state) is answered 422 before it reaches the store or Apply, and
// the machine's earlier artifact keeps being served.
func TestExchangePreloadRejectsBadTables(t *testing.T) {
	ts, _, applied := exchangeServer(t)
	_, good, bad := badTransitionBlob(t)
	post := func(blob []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/preload?machine=x86", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(good); code != http.StatusOK {
		t.Fatalf("good preload = %d, want 200", code)
	}
	if code := post(bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("preload with an out-of-range transition = %d, want 422", code)
	}
	if len(*applied) != 1 {
		t.Fatalf("Apply calls %v, want only the good preload's", *applied)
	}
	resp, err := http.Get(ts.URL + "/blobs/x86")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllLimited(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, good) {
		t.Fatalf("GET /blobs/x86 = %d with %d bytes, want the earlier %d-byte artifact", resp.StatusCode, len(body), len(good))
	}
}
