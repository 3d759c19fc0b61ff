package repro_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/gen"
)

// captureLog wires a registry's logger into a concurrency-safe capture
// buffer and returns a reader over the lines logged so far.
func captureLog(reg *repro.Registry) func() []string {
	var mu sync.Mutex
	var lines []string
	reg.SetLogger(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

func statusOf(t *testing.T, reg *repro.Registry, name string) repro.MachineStatus {
	t.Helper()
	for _, st := range reg.Status() {
		if st.Machine == name {
			return st
		}
	}
	t.Fatalf("machine %q not in Status()", name)
	return repro.MachineStatus{}
}

// TestSwapVersionDrainAndRetire pins the swap lifecycle at the registry
// level: a lease acquired before the swap pins the old version in the
// draining set (resident, still compiling correctly) while new traffic
// resolves the new version; releasing the last lease fully retires it.
func TestSwapVersionDrainAndRetire(t *testing.T) {
	reg := repro.NewRegistry()
	reg.SetLogger(func(string, ...any) {})
	if err := reg.Add("x86", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm("x86"); err != nil {
		t.Fatal(err)
	}
	if st := statusOf(t, reg, "x86"); st.Version != 1 {
		t.Fatalf("fresh entry version = %d, want 1", st.Version)
	}

	old, err := reg.Acquire("x86")
	if err != nil {
		t.Fatal(err)
	}
	if old.Version != 1 {
		t.Fatalf("lease version = %d, want 1", old.Version)
	}
	tree, err := old.Machine.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Selector.Compile(context.Background(), tree); err != nil {
		t.Fatal(err)
	}

	if err := reg.Swap("x86"); err != nil {
		t.Fatal(err)
	}
	st := statusOf(t, reg, "x86")
	if st.Version != 2 {
		t.Fatalf("post-swap version = %d, want 2", st.Version)
	}
	if st.Draining != 1 {
		t.Fatalf("post-swap draining = %d, want 1 (our lease pins v1)", st.Draining)
	}

	// New acquisitions resolve the new version while the old lease keeps
	// compiling on its retired tables unharmed.
	fresh, err := reg.Acquire("x86")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version != 2 {
		t.Fatalf("fresh lease version = %d, want 2", fresh.Version)
	}
	if fresh.Selector == old.Selector {
		t.Fatal("swap must publish a new selector, not reuse the old one")
	}
	if _, err := old.Selector.Compile(context.Background(), tree); err != nil {
		t.Fatalf("draining version must keep compiling: %v", err)
	}
	fresh.Release()

	old.Release()
	old.Release() // idempotent
	if st := statusOf(t, reg, "x86"); st.Draining != 0 {
		t.Fatalf("draining = %d after the last v1 lease released, want 0", st.Draining)
	}

	if err := reg.Swap("x86"); err != nil {
		t.Fatal(err)
	}
	if st := statusOf(t, reg, "x86"); st.Version != 3 || st.Draining != 0 {
		t.Fatalf("after second swap: version = %d draining = %d, want 3 and 0 (no leases out)", st.Version, st.Draining)
	}
}

// TestEvictAndSwapConflictMidSwap holds a swap mid-construction (a hang
// fault on the blob load) and pins the conflict surface: Evict and a
// second Swap of the machine both fail with ErrSwapInProgress, the
// registry reports not-ready, and once the hang releases the swap lands
// normally.
func TestEvictAndSwapConflictMidSwap(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(t.TempDir(), "x86.isel")
	if err := os.WriteFile(blob, res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := repro.NewRegistry()
	reg.SetLogger(func(string, ...any) {})
	if err := reg.AddMachine(m, repro.KindHybrid, repro.Options{PreloadPath: blob}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm("x86"); err != nil { // consumes the boot blob load
		t.Fatal(err)
	}

	gate := make(chan struct{})
	defer faultinject.Arm(faultinject.GenLoad, faultinject.Fault{Hang: gate, Count: 1})()

	swapDone := make(chan error, 1)
	go func() { swapDone <- reg.Swap("x86") }()

	deadline := time.Now().Add(5 * time.Second)
	for !statusOf(t, reg, "x86").Swapping {
		if time.Now().After(deadline) {
			t.Fatal("swap never reached mid-construction")
		}
		time.Sleep(time.Millisecond)
	}

	if err := reg.Evict("x86"); !errors.Is(err, repro.ErrSwapInProgress) {
		t.Fatalf("Evict mid-swap = %v, want ErrSwapInProgress", err)
	}
	if err := reg.Swap("x86"); !errors.Is(err, repro.ErrSwapInProgress) {
		t.Fatalf("second Swap mid-swap = %v, want ErrSwapInProgress", err)
	}
	if err := reg.Ready(); err == nil || !strings.Contains(err.Error(), "mid-swap") {
		t.Fatalf("Ready mid-swap = %v, want a mid-swap error", err)
	}
	// The machine keeps serving its old version throughout.
	if _, _, err := reg.Get("x86"); err != nil {
		t.Fatalf("Get mid-swap = %v, the old version must keep serving", err)
	}

	close(gate)
	if err := <-swapDone; err != nil {
		t.Fatalf("swap after the hang released = %v", err)
	}
	st := statusOf(t, reg, "x86")
	if st.Version != 2 || st.Swapping {
		t.Fatalf("post-swap status = v%d swapping=%v, want v2 and false", st.Version, st.Swapping)
	}
	if err := reg.Ready(); err != nil {
		t.Fatalf("Ready after swap = %v", err)
	}
	if err := reg.Evict("x86"); err != nil {
		t.Fatalf("Evict after swap = %v", err)
	}
}

// TestFaultInjectGenLoadQuarantine drives the injected-corruption path
// through the real loader: an armed GenLoad fault makes the preload blob
// unloadable at construction, so the registry must quarantine it, log,
// and fall back to cold in-process tables — serving, not sticky-broken.
func TestFaultInjectGenLoadQuarantine(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(t.TempDir(), "x86.isel")
	if err := os.WriteFile(blob, res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := repro.NewRegistry()
	logged := captureLog(reg)
	if err := reg.AddMachine(m, repro.KindHybrid, repro.Options{PreloadPath: blob}); err != nil {
		t.Fatal(err)
	}

	defer faultinject.Arm(faultinject.GenLoad, faultinject.Fault{
		Err:   errors.New("injected: unreadable blob"),
		Count: 1,
	})()

	_, sel, err := reg.Get("x86")
	if err != nil {
		t.Fatalf("Get with an unloadable blob = %v, want cold fallback", err)
	}
	tree, err := m.ParseTree("RET(ADD(REG[1], CNST[2]))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Compile(context.Background(), tree); err != nil {
		t.Fatalf("fallback selector compile = %v", err)
	}
	if got := faultinject.Fired(faultinject.GenLoad); got != 1 {
		t.Fatalf("fault fired %d times, want 1", got)
	}
	if _, err := os.Stat(blob + ".bad"); err != nil {
		t.Fatalf("blob must be quarantined to .bad: %v", err)
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatalf("original blob must be renamed away, stat = %v", err)
	}
	found := false
	for _, l := range logged() {
		if strings.Contains(l, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine must be logged, got %q", logged())
	}
	if st := statusOf(t, reg, "x86"); st.Err != "" {
		t.Fatalf("sticky error %q after fallback, want none", st.Err)
	}
}

// TestReadyExpectWarm pins the readiness contract: a registry with an
// ExpectWarm machine is not ready until that machine is constructed, and
// a sticky construction failure keeps it permanently unready.
func TestReadyExpectWarm(t *testing.T) {
	reg := repro.NewRegistry()
	reg.SetLogger(func(string, ...any) {})
	if err := reg.Add("x86", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ready(); err != nil {
		t.Fatalf("Ready with no expectations = %v, want nil (lazy machines may warm on demand)", err)
	}
	if err := reg.ExpectWarm("x86"); err != nil {
		t.Fatal(err)
	}
	if err := reg.ExpectWarm("nope"); err == nil {
		t.Fatal("ExpectWarm of an unknown machine must fail")
	}
	if err := reg.Ready(); err == nil {
		t.Fatal("Ready before the expected machine warmed, want an error")
	}
	if err := reg.Warm("x86"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ready(); err != nil {
		t.Fatalf("Ready after warm = %v", err)
	}
	// A swap preserves the expectation: post-swap the machine is warm
	// again, so readiness holds.
	if err := reg.Swap("x86"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ready(); err != nil {
		t.Fatalf("Ready after swap = %v", err)
	}
}
