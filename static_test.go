package repro_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/internal/workload"
)

// writeBlob compiles m's grammar ahead of time and writes the `.isel`
// blob — what `iselgen -machine <m> -fixed -out <path>` produces.
func writeBlob(t *testing.T, m *repro.Machine, path string) {
	t.Helper()
	res, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOfflineRoundTrip pins the one table path: for every machine's
// fixed-cost subset, KindStatic built from each table source — the
// closure computed in-process and a PreloadPath blob — is one engine, the
// seeded *core.Engine: identical NumStates, NumTransitions and
// MemoryBytes, identical labels and Compile output.
func TestOfflineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range repro.Machines() {
		t.Run(name, func(t *testing.T) {
			fixed := mustFixed(t, name)
			path := filepath.Join(dir, name+".isel")
			writeBlob(t, fixed, path)
			sources := []struct {
				what string
				opt  repro.Options
			}{
				{"in-process", repro.Options{}},
				{"blob", repro.Options{PreloadPath: path}},
			}
			sels := make([]*repro.Selector, len(sources))
			for i, src := range sources {
				sel, err := fixed.NewSelector(repro.KindStatic, src.opt)
				if err != nil {
					t.Fatalf("%s: %v", src.what, err)
				}
				if _, ok := sel.Labeler().(*core.Engine); !ok {
					t.Fatalf("%s: static selector engine is %T, want the seeded *core.Engine", src.what, sel.Labeler())
				}
				sels[i] = sel
			}
			ref := sels[0]
			for i, sel := range sels[1:] {
				if sel.States() != ref.States() || sel.Transitions() != ref.Transitions() || sel.MemoryBytes() != ref.MemoryBytes() {
					t.Fatalf("%s: %d states, %d transitions, %d bytes; in-process %d, %d, %d", sources[i+1].what,
						sel.States(), sel.Transitions(), sel.MemoryBytes(), ref.States(), ref.Transitions(), ref.MemoryBytes())
				}
			}
			roots, inner, leaf := opSplit(fixed.Grammar)
			for seed := 0; seed < 50; seed++ {
				f := ir.RandomForest(fixed.Grammar, diffConfig(seed, roots, inner, leaf))
				want, wantErr := ref.Compile(context.Background(), f)
				for i, sel := range sels[1:] {
					got, err := sel.Compile(context.Background(), f)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("seed %d: %s err=%v, in-process err=%v", seed, sources[i+1].what, err, wantErr)
					}
					if err == nil && (got.Asm != want.Asm || got.Cost != want.Cost) {
						t.Fatalf("seed %d: %s tables compile differently from in-process ones", seed, sources[i+1].what)
					}
				}
			}
		})
	}
}

// TestOfflineRejectsDynamicAndWrongBlob: the static kind refuses
// dynamic-cost grammars, with or without a hybrid blob of their fixed
// operators, and the table-backed kinds refuse, through
// Options.PreloadPath, a blob generated for another grammar, a truncated
// blob, one with a flipped body byte, one whose tables hold a transition
// past the last state, one whose projection puts states in the wrong
// representer class, and one of the retired `.isel` version 1.
func TestOfflineRejectsDynamicAndWrongBlob(t *testing.T) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSelector(repro.KindStatic, repro.Options{}); err == nil {
		t.Fatal("static selector constructed on a grammar with dynamic rules")
	}
	fixed := mustFixed(t, "x86")
	res, err := gen.Compile(fixed.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.Compile(mustFixed(t, "jit64").Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), res.Blob...)
	flipped[len(flipped)/2] ^= 0xff
	// x86's hybrid seed re-encoded with one transition cell past the last
	// state: framing, checksum and fingerprint are all valid, so only the
	// table validator can tell.
	seed, err := gen.Compile(m.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := seed.Tables
	for op := range ts.T2 {
		if len(ts.T2[op]) > 0 {
			ts.T2[op][0] = int32(ts.NumStates() + 5)
			break
		}
	}
	shifted, err := gen.EncodeBytes(m.Grammar, ts)
	if err != nil {
		t.Fatal(err)
	}
	// x86.fixed with INDIR position 0's class-0 states moved to class 1:
	// every id and cell in range, so only the projection check can tell.
	// Served, such tables select wrong or underivable covers.
	moved, err := gen.Compile(fixed.Grammar, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	indir, _ := fixed.Grammar.OpByName("INDIR")
	if moved.Tables.NReps[indir][0] < 2 {
		t.Fatalf("INDIR position 0 has %d classes; the test needs two", moved.Tables.NReps[indir][0])
	}
	for s, c := range moved.Tables.Mu[indir][0] {
		if c == 0 {
			moved.Tables.Mu[indir][0][s] = 1
		}
	}
	misprojected, err := gen.EncodeBytes(fixed.Grammar, moved.Tables)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "bad.isel")
	for _, c := range []struct {
		what string
		m    *repro.Machine
		kind repro.Kind
		blob []byte
		want string // in the error
		is   error  // matched with errors.Is, when set
	}{
		{"hybrid blob", m, repro.KindStatic, seed.Blob, "dynamic-cost rules", nil},
		{"another grammar's blob", fixed, repro.KindStatic, other.Blob, "fingerprint", nil},
		{"truncated blob", fixed, repro.KindStatic, res.Blob[:len(res.Blob)-3], "", nil},
		{"flipped body byte", fixed, repro.KindStatic, flipped, "", nil},
		{"out-of-range transition", m, repro.KindHybrid, shifted, "transition references state", nil},
		{"wrong projection", fixed, repro.KindStatic, misprojected, "INDIR position 0", core.ErrClassMismatch},
	} {
		if err := os.WriteFile(path, c.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := c.m.NewSelector(c.kind, repro.Options{PreloadPath: path})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want a rejection mentioning %q", c.what, err, c.want)
		}
		if c.is != nil && !errors.Is(err, c.is) {
			t.Fatalf("%s: err = %v, want %v", c.what, err, c.is)
		}
	}

	// The payload of a good blob, framed as version 1 with a valid
	// checksum: only the version is wrong.
	v1 := append([]byte("ISEL1\n"), res.Blob[len(gen.MagicV2):len(res.Blob)-8]...)
	h := fnv.New64a()
	h.Write(v1)
	v1 = binary.LittleEndian.AppendUint64(v1, h.Sum64())
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.NewSelector(repro.KindStatic, repro.Options{PreloadPath: path}); !errors.Is(err, gen.ErrUnsupportedVersion) {
		t.Fatalf("version-1 blob: err = %v, want gen.ErrUnsupportedVersion", err)
	}
}

func mustFixed(tb testing.TB, name string) *repro.Machine {
	tb.Helper()
	m, err := repro.LoadMachine(name)
	if err != nil {
		tb.Fatal(err)
	}
	fixed, err := m.FixedMachine()
	if err != nil {
		tb.Fatal(err)
	}
	return fixed
}

// statsStates fetches /stats and returns the one served machine's
// states/transitions plus its engine kind.
func statsStates(t *testing.T, url string) (states, trans int, kind string) {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Machines) != 1 {
		t.Fatalf("stats machines = %d, want 1", len(st.Machines))
	}
	return st.Machines[0].States, st.Machines[0].Transitions, st.Machines[0].Kind
}

// TestOfflinePreloadServesWarm is the acceptance check end to end:
// loading a generated `.isel` blob yields a served machine whose first
// request is already warm — /stats reports the full table before any
// traffic and exactly zero construction under it.
func TestOfflinePreloadServesWarm(t *testing.T) {
	fixed := mustFixed(t, "demo")
	fixed.Name = "demo" // serve under the requested name, like iselserver -preload
	path := filepath.Join(t.TempDir(), "demo.isel")
	writeBlob(t, fixed, path)

	reg := repro.NewRegistry()
	if err := reg.AddMachine(fixed, repro.KindStatic, repro.Options{PreloadPath: path}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm("demo"); err != nil { // boot-time construction, like iselserver
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Workers: 2})
	defer srv.Shutdown()
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()

	before, beforeTrans, kind := statsStates(t, hs.URL)
	if kind != string(repro.KindStatic) {
		t.Fatalf("served kind = %q, want static", kind)
	}
	if before == 0 || beforeTrans == 0 {
		t.Fatalf("machine not warm before traffic: %d states, %d transitions", before, beforeTrans)
	}

	body := `{"client":"t","trees":"Store(Reg[1], Plus(Reg[2], Reg[3]))"}`
	resp, err := http.Post(hs.URL+"/compile?machine=demo", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	var cr server.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Outputs) != 1 || cr.Outputs[0].Asm == "" {
		t.Fatalf("no code emitted: %+v", cr)
	}
	if cr.States != before {
		t.Fatalf("first request constructed states: %d -> %d, want 0 construction under traffic", before, cr.States)
	}

	after, afterTrans, _ := statsStates(t, hs.URL)
	if after != before || afterTrans != beforeTrans {
		t.Fatalf("traffic grew the tables: states %d -> %d, transitions %d -> %d (want unchanged)",
			before, after, beforeTrans, afterTrans)
	}
}

// TestEvictOverHTTP: POST /evict resets a machine's engine — /stats
// shows it unconstructed, the next request rebuilds it.
func TestEvictOverHTTP(t *testing.T) {
	reg := repro.NewRegistry()
	if err := reg.Add("jit64", repro.KindOnDemand, repro.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Workers: 2})
	defer srv.Shutdown()
	hs := httptest.NewServer(server.NewHandler(srv))
	defer hs.Close()

	body := `{"client":"t","minc":"int f(int a) { return a + 2; }"}`
	resp, err := http.Post(hs.URL+"/compile?machine=jit64", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	if states, _, _ := statsStates(t, hs.URL); states == 0 {
		t.Fatal("no states after traffic")
	}

	resp, err = http.Post(hs.URL+"/evict?machine=jit64", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict status = %d", resp.StatusCode)
	}
	var st server.StatsResponse
	r2, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.Machines[0].Constructed {
		t.Fatal("machine still constructed after /evict")
	}
	// Next job reconstructs transparently.
	resp, err = http.Post(hs.URL+"/compile?machine=jit64", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after evict status = %d", resp.StatusCode)
	}

	resp, err = http.Post(hs.URL+"/evict?machine=ghost", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evict unknown machine status = %d, want 404", resp.StatusCode)
	}
}

// inflate pads ts with synthetic states up to n: state 0's vectors with
// every finite cost raised by the same amount — distinct, passing the
// per-state rules, reached by no transition — projected wherever state 0
// projects (its costs rebase to state 0's, so that is where the
// projection puts them too) — a well-formed table set, accepted by the
// validator and by the hybrid's projection check, that claims n states.
func inflate(g *grammar.Grammar, ts *automaton.TableSet, n int) {
	for s := ts.NumStates(); s < n; s++ {
		for nt := 0; nt < ts.NumNT; nt++ {
			d := ts.Deltas[nt]
			if !d.IsInf() {
				d += grammar.Cost(s)
			}
			ts.Deltas = append(ts.Deltas, d)
			ts.Rules = append(ts.Rules, ts.Rules[nt])
		}
		for op := range ts.Mu {
			for p := 0; p < g.Ops[op].Arity; p++ {
				ts.Mu[op][p] = append(ts.Mu[op][p], ts.Mu[op][p][0])
			}
		}
	}
}

// TestCraftedBlobExpansionBounded: a well-formed blob claiming 4,096
// states — 21 binary operators' worth of 64 MB grids, were tables sized
// by state id with no total bound — must load within
// automaton.ExpandMaxBytes of allocation and footprint, stay within it
// through a corpus pass, and still select exactly like DP, through the
// static and the hybrid kind alike.
func TestCraftedBlobExpansionBounded(t *testing.T) {
	const claimed = 4096
	x86, err := repro.LoadMachine("x86")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m    *repro.Machine
		kind repro.Kind
	}{{mustFixed(t, "x86"), repro.KindStatic}, {x86, repro.KindHybrid}} {
		g := c.m.Grammar
		res, err := gen.Compile(g, gen.Config{})
		if err != nil {
			t.Fatal(err)
		}
		inflate(g, res.Tables, claimed)
		blob, err := gen.EncodeBytes(g, res.Tables)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "crafted.isel")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sel, err := c.m.NewSelector(c.kind, repro.Options{PreloadPath: path})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s %s: crafted blob rejected: %v", g.Name, c.kind, err)
		}
		alloc, mem := after.TotalAlloc-before.TotalAlloc, sel.MemoryBytes()
		t.Logf("%s %s: %d-byte blob: %d bytes allocated to load, %d served", g.Name, c.kind, len(blob), alloc, mem)
		if alloc > automaton.ExpandMaxBytes || mem > automaton.ExpandMaxBytes {
			t.Errorf("%s %s: load allocated %d bytes and serves %d, bound %d", g.Name, c.kind, alloc, mem, automaton.ExpandMaxBytes)
		}
		if sel.States() != claimed {
			t.Errorf("%s %s: %d states, the blob claims %d", g.Name, c.kind, sel.States(), claimed)
		}

		// One corpus pass: states born under traffic get ids past the
		// claimed ones, which must not size the on-demand engine's dense
		// grids by the square of the seed.
		oracle, err := c.m.NewSelector(repro.KindDP, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var fs []*ir.Forest
		var want []*repro.Output
		for _, u := range workload.MustCompileAll(g) {
			for _, f := range u.Forests() {
				out, err := oracle.Compile(context.Background(), f)
				if err != nil {
					t.Fatal(err)
				}
				fs, want = append(fs, f), append(want, out)
			}
		}
		got := make([]*repro.Output, len(fs))
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, f := range fs {
			if got[i], err = sel.Compile(context.Background(), f); err != nil {
				t.Fatalf("%s %s: %v", g.Name, c.kind, err)
			}
		}
		runtime.ReadMemStats(&after)
		alloc, mem = after.TotalAlloc-before.TotalAlloc, sel.MemoryBytes()
		t.Logf("%s %s: %d bytes allocated by a corpus pass, %d served after it", g.Name, c.kind, alloc, mem)
		// Under -race sync.Pool drops pooled labelings by design, so only
		// the footprint is bounded there (see alloc_test.go).
		if (alloc > automaton.ExpandMaxBytes && !raceEnabled) || mem > automaton.ExpandMaxBytes {
			t.Errorf("%s %s: corpus pass allocated %d bytes and left %d served, bound %d", g.Name, c.kind, alloc, mem, automaton.ExpandMaxBytes)
		}
		for i := range fs {
			if got[i].Asm != want[i].Asm || got[i].Cost != want[i].Cost {
				t.Fatalf("%s %s: forest %d output differs from DP", g.Name, c.kind, i)
			}
		}
	}
}
