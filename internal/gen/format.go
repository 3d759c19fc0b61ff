package gen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/automaton"
	"repro/internal/faultinject"
	"repro/internal/grammar"
)

// The `.isel` wire format, version 2 ("ISEL2\n"). Everything after the
// magic is little-endian and fully deterministic, so the same grammar
// always serializes to the same bytes. The table sections are
// varint/delta-encoded: state vectors, representer maps and transition
// tables are runs of small, strongly correlated integers, so each run is
// written as zigzag varints of the difference from the previous entry.
// That makes `.isel` blobs typically 2-4x smaller than fixed-width
// entries.
//
//	magic   "ISEL2\n"
//	u64     grammar fingerprint (grammar.Grammar.Fingerprint; name + normal-form dump)
//	u32     grammar-name length, then the name bytes (diagnostics only)
//	u32×3   numOps, numNT, numStates
//	u8×ops  operator arities (structure check against the loading grammar)
//
// Body (svar = zigzag varint of the difference from the previous entry
// of the same run, starting from 0; uvar = plain varint):
//
//	deltas  numStates × numNT svar (one run)
//	rules   numStates × numNT svar (one run)
//	leaf    numOps svar
//	projs   per operator, per child position < arity:
//	            uvar nreps, then numStates svar representer ids
//	trans   per unary operator:  uvar len, len svar state ids (t1)
//	        per binary operator: uvar len, len svar state ids (t2)
//
// and the blob ends with:
//
//	u32     trailer 0x4c455349 ("ISEL" reversed) — truncation check
//	u64     FNV-64a checksum of everything before it — content check
//
// The trailing checksum is what rejects body corruption the structural
// validation cannot see (a flipped cost bit still yields a well-formed
// state vector); Decode verifies it before parsing a single table.
//
// Version 2 is the only version. Any other ISEL magic — the retired
// fixed-width version 1 included — fails with ErrUnsupportedVersion,
// anything else is not a blob, and a fingerprint mismatch rejects tables
// generated for any other grammar (or another revision of the same
// grammar — the fingerprint covers the normal-form dump).
const (
	// MagicV2 identifies version 2, the format EncodeBytes writes and Decode
	// reads.
	MagicV2 = "ISEL2\n"
	// trailer terminates a well-formed blob.
	trailer uint32 = 0x4c455349
)

// ErrUnsupportedVersion is the typed error for a blob of another `.isel`
// version; match with errors.Is.
var ErrUnsupportedVersion = errors.New("gen: unsupported .isel version (regenerate with iselgen)")

// Header is the cheap-to-read prefix of a blob: enough to route it to the
// right grammar (fingerprint matching) without decoding any table.
type Header struct {
	Fingerprint uint64
	// Grammar is the name the tables were generated for (diagnostics; the
	// fingerprint is the authority).
	Grammar string
	NumOps  int
	NumNT   int
	States  int
}

// EncodeBytes is the canonical encoder: the version-2 payload plus the
// trailing FNV-64a content checksum.
func EncodeBytes(g *grammar.Grammar, ts *automaton.TableSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodePayload(&buf, g, ts); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

func encodePayload(w io.Writer, g *grammar.Grammar, ts *automaton.TableSet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(MagicV2); err != nil {
		return err
	}
	put64 := func(v uint64) { binary.Write(bw, binary.LittleEndian, v) }
	put := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	put64(g.Fingerprint())
	put(uint32(len(g.Name)))
	bw.WriteString(g.Name)
	numOps, numNT, numStates := g.NumOps(), ts.NumNT, ts.NumStates()
	put(uint32(numOps))
	put(uint32(numNT))
	put(uint32(numStates))
	for op := 0; op < numOps; op++ {
		bw.WriteByte(byte(g.Ops[op].Arity))
	}
	encodeBody(bw, g, ts)
	put(trailer)
	return bw.Flush()
}

// vwriter emits the version-2 varint sections.
type vwriter struct {
	bw  *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

func (v *vwriter) uvar(x uint64) {
	n := binary.PutUvarint(v.tmp[:], x)
	v.bw.Write(v.tmp[:n])
}

func (v *vwriter) svar(x int64) {
	n := binary.PutVarint(v.tmp[:], x)
	v.bw.Write(v.tmp[:n])
}

// run writes one delta-encoded run: each entry as the zigzag varint of
// its difference from the previous entry (the first from 0).
func (v *vwriter) run(ids []int32) {
	prev := int64(0)
	for _, id := range ids {
		v.svar(int64(id) - prev)
		prev = int64(id)
	}
}

func encodeBody(bw *bufio.Writer, g *grammar.Grammar, ts *automaton.TableSet) {
	v := &vwriter{bw: bw}
	// Deltas and Rules as two separate runs (not interleaved): each is
	// self-correlated — normalized deltas repeat across states,
	// rules repeat per nonterminal — so separating them is what makes the
	// difference stream small.
	prev := int64(0)
	for _, d := range ts.Deltas {
		v.svar(int64(d) - prev)
		prev = int64(d)
	}
	v.run(ts.Rules)
	v.run(ts.Leaf)
	numOps := g.NumOps()
	for op := 0; op < numOps; op++ {
		for p := 0; p < g.Ops[op].Arity; p++ {
			v.uvar(uint64(ts.NReps[op][p]))
			v.run(ts.Mu[op][p])
		}
	}
	for op := 0; op < numOps; op++ {
		switch g.Ops[op].Arity {
		case 1:
			v.uvar(uint64(len(ts.T1[op])))
			v.run(ts.T1[op])
		case 2:
			v.uvar(uint64(len(ts.T2[op])))
			v.run(ts.T2[op])
		}
	}
}

// maxPlausible bounds counts read from a blob before any allocation, so a
// corrupt header cannot demand gigabytes.
const maxPlausible = 1 << 24

// maxBlobBytes bounds the blobs Decode and ReadFile accept: far above any
// real table set, far below what a corrupt length field could waste.
const maxBlobBytes = 1 << 28

type reader struct {
	br  *bufio.Reader
	err error
	// max bounds the entries one run may claim (the payload length:
	// every entry takes at least a byte), so a count field cannot demand
	// an allocation the bytes behind it could never fill.
	max int
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var v uint32
	r.err = binary.Read(r.br, binary.LittleEndian, &v)
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	r.err = binary.Read(r.br, binary.LittleEndian, &v)
	return v
}

func (r *reader) uvar() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.br)
	r.err = err
	return v
}

func (r *reader) svar() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.br)
	r.err = err
	return v
}

// run reads one delta-encoded run of n entries (the inverse of
// vwriter.run).
func (r *reader) run(n int) []int32 {
	if r.err == nil && n > r.max {
		r.err = fmt.Errorf("run of %d entries in a %d-byte payload", n, r.max)
	}
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	prev := int64(0)
	for i := range out {
		prev += r.svar()
		out[i] = int32(prev)
	}
	return out
}

// readHeader consumes the blob prefix through the arity table.
func readHeader(br *bufio.Reader) (*Header, []int, error) {
	magic := make([]byte, len(MagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("gen: reading blob header: %w", err)
	}
	if string(magic) != MagicV2 {
		if bytes.HasPrefix(magic, []byte("ISEL")) {
			return nil, nil, fmt.Errorf("%w: magic %q, want %q", ErrUnsupportedVersion, magic, MagicV2)
		}
		return nil, nil, fmt.Errorf("gen: not a .isel blob: magic %q, want %q", magic, MagicV2)
	}
	r := &reader{br: br}
	h := &Header{Fingerprint: r.u64()}
	nameLen := r.u32()
	if r.err == nil && nameLen > maxPlausible {
		return nil, nil, fmt.Errorf("gen: implausible grammar-name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if r.err == nil {
		_, r.err = io.ReadFull(br, name)
	}
	h.Grammar = string(name)
	h.NumOps = int(r.u32())
	h.NumNT = int(r.u32())
	h.States = int(r.u32())
	if r.err != nil {
		return nil, nil, fmt.Errorf("gen: reading blob header: %w", r.err)
	}
	if h.NumOps > maxPlausible || h.NumNT > maxPlausible || h.States > maxPlausible {
		return nil, nil, fmt.Errorf("gen: implausible blob header (%d ops, %d nonterminals, %d states)", h.NumOps, h.NumNT, h.States)
	}
	arities := make([]int, h.NumOps)
	ab := make([]byte, h.NumOps)
	if _, err := io.ReadFull(br, ab); err != nil {
		return nil, nil, fmt.Errorf("gen: reading arity table: %w", err)
	}
	for i, b := range ab {
		arities[i] = int(b)
	}
	return h, arities, nil
}

// ReadHeader reads just the routing prefix of a blob: the front ends use
// it to match a blob file against a machine's grammar (full vs stripped
// fingerprint) before paying for a decode.
func ReadHeader(r io.Reader) (*Header, error) {
	h, _, err := readHeader(bufio.NewReader(r))
	return h, err
}

// ReadFile reads a blob file, refusing one past the decode bound before
// reading it.
func ReadFile(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxBlobBytes {
		return nil, fmt.Errorf("gen: %s exceeds %d bytes", path, maxBlobBytes)
	}
	return os.ReadFile(path)
}

// Decode parses a blob generated for exactly g and returns its table set,
// unvalidated: engines run it through automaton.ValidateTables (inside
// their constructors) before serving it. The content checksum is verified
// first (any corruption — header, body or truncation — fails here), then
// a fingerprint mismatch — tables for another grammar, or for another
// revision of this one — is rejected before any table is decoded.
func Decode(g *grammar.Grammar, data []byte) (*automaton.TableSet, error) {
	// Fault-injection seam: inert (one atomic load) unless a robustness
	// test armed it to simulate a corrupt or truncated blob at load time.
	// Decode is the one gate every blob load passes — preload and
	// hot-swap re-read.
	if err := faultinject.Fire(faultinject.GenLoad); err != nil {
		return nil, fmt.Errorf("gen: reading blob: %w", err)
	}
	if len(data) > maxBlobBytes {
		return nil, fmt.Errorf("gen: blob exceeds %d bytes", maxBlobBytes)
	}
	if len(data) < len(MagicV2)+8 {
		return nil, fmt.Errorf("gen: blob too short (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	ck := fnv.New64a()
	ck.Write(payload)
	if got := ck.Sum64(); got != sum {
		return nil, fmt.Errorf("gen: blob checksum mismatch (%016x != %016x): corrupt or truncated", got, sum)
	}
	br := bufio.NewReader(bytes.NewReader(payload))
	h, arities, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if want := g.Fingerprint(); h.Fingerprint != want {
		return nil, fmt.Errorf("gen: blob was generated for grammar %q (fingerprint %016x), not %q (%016x)",
			h.Grammar, h.Fingerprint, g.Name, want)
	}
	if h.NumOps != g.NumOps() || h.NumNT != g.NumNonterms() {
		return nil, fmt.Errorf("gen: blob shape (%d ops, %d nonterminals) does not match grammar %s (%d, %d)",
			h.NumOps, h.NumNT, g.Name, g.NumOps(), g.NumNonterms())
	}
	// Bound the state-vector product too: the per-field checks alone would
	// let a header demand States*NumNT entries of allocation before the
	// payload read fails. Each entry takes at least a byte.
	if h.States*h.NumNT > min(maxPlausible, len(payload)) {
		return nil, fmt.Errorf("gen: implausible state-vector volume (%d states × %d nonterminals)", h.States, h.NumNT)
	}
	for op, ar := range arities {
		if ar != g.Ops[op].Arity {
			return nil, fmt.Errorf("gen: operator %s has arity %d in the blob, %d in grammar %s",
				g.OpName(grammar.OpID(op)), ar, g.Ops[op].Arity, g.Name)
		}
	}

	r := &reader{br: br, max: len(payload)}
	ts, err := decodeBody(r, h, arities)
	if err != nil {
		return nil, err
	}
	if tr := r.u32(); r.err == nil && tr != trailer {
		return nil, fmt.Errorf("gen: blob trailer mismatch (%08x): truncated or corrupt", tr)
	}
	if r.err != nil {
		return nil, fmt.Errorf("gen: decoding blob for %s: %w", g.Name, r.err)
	}
	return ts, nil
}

func decodeBody(r *reader, h *Header, arities []int) (*automaton.TableSet, error) {
	ts := newTableSet(h)
	prev := int64(0)
	for i := range ts.Deltas {
		if r.err != nil {
			break
		}
		prev += r.svar()
		ts.Deltas[i] = grammar.Cost(int32(prev))
	}
	ts.Rules = r.run(h.States * h.NumNT)
	ts.Leaf = r.run(h.NumOps)
	for op := 0; op < h.NumOps; op++ {
		for p := 0; p < arities[op]; p++ {
			nreps := r.uvar()
			if r.err == nil && nreps > maxPlausible {
				return nil, fmt.Errorf("gen: implausible representer count %d", nreps)
			}
			ts.NReps[op][p] = int32(nreps)
			ts.Mu[op][p] = r.run(h.States)
		}
	}
	for op := 0; op < h.NumOps; op++ {
		if arities[op] == 0 {
			continue
		}
		n := r.uvar()
		if r.err == nil && n > maxPlausible {
			return nil, fmt.Errorf("gen: implausible transition count %d", n)
		}
		if arities[op] == 1 {
			ts.T1[op] = r.run(int(n))
		} else {
			ts.T2[op] = r.run(int(n))
		}
	}
	return ts, nil
}

func newTableSet(h *Header) *automaton.TableSet {
	return &automaton.TableSet{
		NumNT:  h.NumNT,
		Deltas: make([]grammar.Cost, h.States*h.NumNT),
		NReps:  make([][2]int32, h.NumOps),
		Mu:     make([][2][]int32, h.NumOps),
		T1:     make([][]int32, h.NumOps),
		T2:     make([][]int32, h.NumOps),
	}
}
