// Package store is the crash-safe, content-addressed artifact store
// behind the scenario service's persistence. A physics is stored once and
// a pricing is a row: machine-independent physics records — work trace
// plus ozone diagnostics — and hourly concentration checkpoints are keyed
// by the scenario physics-prefix hash (scenario.Spec.PhysicsPrefixHash),
// a completed run is a row (SpecManifest, keyed by the full scenario hash)
// naming its prefixes and carrying only what machine, node count and mode
// decide, and Restore joins the two back into a core.Result.
// Source–receptor matrices (internal/sr) are keyed by matrix content key.
// Checkpoints reuse the hourio checksummed snapshot format, so a stored
// checkpoint is directly consumable by core.RestartReaderContext; records,
// rows and SR matrices travel in a small CRC-framed envelope of gzip-framed
// gob (AIRSTOR1; stored blocks, see writeMeta). A whole result — PutResult's
// self-contained form, and all that stores from before rows hold — keeps
// that encoding for its metadata and carries Final, the megabyte gzip
// measured at ratio 1.0, as one raw float64 section under a single frame
// CRC (AIRSRES2; AIRSTOR1 results still read, nothing writes them).
// Artifacts a daemon is actively serving from memory are pinned (Pin) so
// the size-capped GC never evicts them mid-serve.
//
// Raw blob bytes live behind a pluggable Backend: the local directory
// (DirBackend — the default, Open), an in-memory map (MemBackend), or a
// remote coordinator over HTTP (HTTPBackend — how fleet workers share
// one store). Everything above the Backend — envelopes, CRC
// verification, counters, the circuit breaker, GC — is Backend-agnostic.
//
// The durability contract is deliberately asymmetric: writes are atomic
// (the directory backend serialises to a temp file in the same
// directory, fsyncs, renames into place) so a crash never leaves a
// partially-visible entry, while reads are defensive — a truncated,
// bit-flipped or otherwise undecodable entry fails its CRC or decode, is
// moved into the backend's quarantine area (never silently deleted, so
// the bad bytes stay available for forensics and can never be re-served
// or re-read as good), and reported as a miss. Callers recompute; the
// store never propagates corruption and never crashes on it. The
// integrity scrubber (internal/integrity) walks the store in the
// background re-verifying every artifact through the same quarantine
// path, and SetVerifyReads arms a paranoid mode that re-verifies raw
// blob reads (GetBlob) too. A size-capped GC evicts
// oldest-first when the configured byte budget is exceeded, so the store
// can run unattended under a daemon. A Store over a shared Backend keeps
// no local index and never garbage-collects: the backend's owner (the
// fleet coordinator) is the single GC authority.
//
// The store self-protects against failing I/O with a circuit breaker:
// after a streak of real failures it opens and refuses further I/O with
// ErrDegraded (reads report misses), so callers degrade to compute-only
// operation instead of hammering broken storage. A periodic half-open
// probe re-closes the breaker once I/O recovers. Benign misses (blob
// vanished under GC) never count against the breaker; corruption does —
// repeated CRC failures mean the medium, not the payload, is the
// problem.
//
// All methods are safe for concurrent use. Lookups racing GC simply miss.
package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"airshed/internal/core"
	"airshed/internal/dist"
	"airshed/internal/hourio"
	"airshed/internal/resilience"
	"airshed/internal/vm"
)

// ErrDegraded is returned by writes while the store's circuit breaker is
// open: the backend is misbehaving and the store has paused I/O. Reads in
// the same state report plain misses, so callers fall back to computing.
var ErrDegraded = errors.New("store: degraded: circuit breaker open")

// envelopeMagic frames records, manifests and SR matrices: magic, CRC-32
// of the payload, payload length, then the gzip-framed gob payload. Results
// written before resultMagic existed carry it too, and still read.
const envelopeMagic = "AIRSTOR1"

// resultMagic frames results: magic, one CRC-32 over every byte after
// it, metadata length, float count, the gzip-framed gob of the Result with
// Final nil, then Final as raw little-endian float64s. Final is all but
// a few KB of a result and measured a gzip ratio of 1.0, so it pays for
// neither gob nor gzip.
const resultMagic = "AIRSRES2"

// Frame offsets (both magics are eight bytes).
const (
	crcOffset      = len(envelopeMagic)
	crcEnd         = crcOffset + 4
	envelopeHeader = crcEnd + 8     // payload length
	resultHeader   = crcEnd + 8 + 8 // metadata length, float count
)

// maxPayload bounds a frame section's declared length (corruption guard).
const maxPayload = 1 << 31

// Artifact kind subdirectories.
const (
	kindResult     = "results"
	kindRecord     = "records"
	kindCheckpoint = "checkpoints"
	kindSRMatrix   = "srmatrices"
	kindSpec       = "specs"
)

// Exported kind names, for packages that walk the store layout by
// "kind/name" key (the integrity scrubber dispatches repair strategy on
// the kind of a quarantined artifact).
const (
	KindResult     = kindResult
	KindRecord     = kindRecord
	KindCheckpoint = kindCheckpoint
	KindSpec       = kindSpec
)

// PhysicsRecord is the machine-independent physics of a run prefix: the
// work trace of its hours and the per-hour ground-level ozone peaks. A
// record plus the matching checkpoint reconstructs a full result for any
// machine, node count and mode via core.Price — the "reuse the physics
// wholesale" path — and a record alone merges a warm-started suffix run
// back into full-run diagnostics.
type PhysicsRecord struct {
	Trace          *core.Trace
	HourlyPeakO3   []float64
	HourlyPeakCell []int
}

// Validate checks internal consistency.
func (r *PhysicsRecord) Validate() error {
	if r.Trace == nil {
		return fmt.Errorf("store: record has no trace")
	}
	if err := r.Trace.Validate(); err != nil {
		return err
	}
	if len(r.HourlyPeakO3) != len(r.Trace.Hours) || len(r.HourlyPeakCell) != len(r.Trace.Hours) {
		return fmt.Errorf("store: record has %d hours but %d/%d peak entries",
			len(r.Trace.Hours), len(r.HourlyPeakO3), len(r.HourlyPeakCell))
	}
	return nil
}

// Counters is a point-in-time snapshot of the store's metrics. Hits and
// Misses count lookups across all artifact kinds; Corrupt counts entries
// that failed CRC or decode verification (each also counts as a miss);
// Evictions counts GC removals; Faults counts real (or injected) I/O
// failures fed to the circuit breaker; DegradedOps counts operations
// refused while the breaker was open.
type Counters struct {
	Hits        uint64
	Misses      uint64
	Corrupt     uint64
	Evictions   uint64
	Faults      uint64
	DegradedOps uint64
	TempsSwept  uint64

	// Quarantined counts blobs moved into the quarantine area after
	// failing verification (a subset of Corrupt: every quarantine books
	// a corruption, but a backend without quarantine support books the
	// corruption and deletes instead).
	Quarantined uint64

	// Gauges (zero for a Store over a shared Backend, which keeps no
	// local index). Pinned counts artifacts currently pin-protected
	// from GC (a serving daemon's resident SR matrices).
	// QuarantineEntries is the number of blobs currently held in the
	// backend's quarantine area (0 when the backend has none).
	Entries           int
	Bytes             int64
	Pinned            int
	QuarantineEntries int
}

// entry is one stored artifact in the index.
type entry struct {
	size  int64
	added time.Time
}

// Store is the artifact store. Create with Open (local directory) or
// OpenBackend (any Backend).
type Store struct {
	backend     Backend
	shared      bool
	maxBytes    int64
	breaker     *resilience.Breaker
	verifyReads atomic.Bool

	mu       sync.Mutex
	entries  map[string]entry // by relpath kind/hash.ext; nil when shared
	pinned   map[string]bool  // GC-exempt relpaths
	bytes    int64
	counters Counters
}

// Open creates (or reopens) a store rooted at the local directory dir,
// capped at maxBytes of artifact data (<= 0 means unlimited). Existing
// entries are indexed; leftover temp files from an interrupted write are
// removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	b, err := NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	return OpenBackend(b, maxBytes)
}

// OpenBackend creates a store over an arbitrary Backend. For an owned
// (non-shared) backend the existing blobs are indexed and the byte cap
// enforced by GC; for a shared backend the store keeps no index — every
// lookup consults the backend, and GC is left to the backend's owner.
func OpenBackend(b Backend, maxBytes int64) (*Store, error) {
	s := &Store{
		backend:  b,
		shared:   b.Shared(),
		maxBytes: maxBytes,
		pinned:   make(map[string]bool),
		breaker:  resilience.NewBreaker(resilience.DefaultBreakerThreshold, resilience.DefaultBreakerCooldown),
	}
	if s.shared {
		return s, nil
	}
	s.entries = make(map[string]entry)
	infos, err := b.List()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		s.entries[info.Key] = entry{size: info.Size, added: info.ModTime}
		s.bytes += info.Size
	}
	return s, nil
}

// Dir returns the root directory for a directory-backed store, "" for
// any other backend.
func (s *Store) Dir() string {
	if db, ok := s.backend.(*DirBackend); ok {
		return db.Dir()
	}
	return ""
}

// Backend returns the store's raw blob backend.
func (s *Store) Backend() Backend { return s.backend }

// Breaker returns the store's circuit breaker (never nil) for state
// inspection and tuning.
func (s *Store) Breaker() *resilience.Breaker { return s.breaker }

// SetBreaker replaces the circuit breaker (e.g. with a tighter threshold
// or a test clock). Call before the store is shared.
func (s *Store) SetBreaker(b *resilience.Breaker) {
	if b != nil {
		s.breaker = b
	}
}

// Degraded reports whether the store is refusing I/O: the breaker is
// open (or probing half-open after a failure streak).
func (s *Store) Degraded() bool { return s.breaker.State() != resilience.BreakerClosed }

// ioAllow asks the breaker for one I/O slot. A false return is booked as
// a degraded op; a true return MUST be matched by exactly one ioSuccess
// or ioFailure.
func (s *Store) ioAllow() bool {
	if s.breaker.Allow() {
		return true
	}
	s.mu.Lock()
	s.counters.DegradedOps++
	s.mu.Unlock()
	return false
}

// ioSuccess releases an allowed I/O as healthy.
func (s *Store) ioSuccess() { s.breaker.Success() }

// ioFailure books a real I/O failure against the breaker.
func (s *Store) ioFailure() {
	s.mu.Lock()
	s.counters.Faults++
	s.mu.Unlock()
	s.breaker.Failure()
}

// SetVerifyReads arms (or disarms) paranoid read verification: with it
// on, raw blob reads (GetBlob — the path the fleet blob server serves
// workers from, which otherwise trusts the reader's CRC check) re-verify
// the blob's framing and checksums on every Get, routing failures
// through quarantine. The typed getters (GetResult, Checkpoint, …)
// always verify regardless of this mode.
func (s *Store) SetVerifyReads(on bool) { s.verifyReads.Store(on) }

// Counters snapshots the metrics.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters
	c.Entries = len(s.entries)
	c.Bytes = s.bytes
	c.Pinned = len(s.pinned)
	if q, ok := s.backend.(Quarantiner); ok {
		c.QuarantineEntries = q.QuarantineCount()
	}
	return c
}

// Pin exempts a blob (by "kind/name" key) from garbage collection for the
// life of the process: a daemon serving a memory-resident SR matrix pins
// its backing artifact so a size-capped GC pass can never evict the blob
// out from under the serving layer. Pins are an in-process property
// only — they are not persisted, so a restarted daemon re-pins whatever
// it re-loads.
// Pinning never fails on a missing blob; the pin simply protects the key
// if it is (re)written later. Corrupt entries are still quarantined — a
// pin protects bytes from eviction, not from being broken.
func (s *Store) Pin(key string) error {
	kind, name, err := SplitKey(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pinned[kind+"/"+name] = true
	return nil
}

// relpath builds the index key / backend location of an artifact.
func relpath(kind, hash, ext string) (string, error) {
	if hash == "" || strings.ContainsAny(hash, "/\\.") {
		return "", fmt.Errorf("store: invalid artifact hash %q", hash)
	}
	return kind + "/" + hash + ext, nil
}

// writeBlob pushes data to the backend under rel, then indexes it and
// runs GC (owned backends only). While the breaker is open it refuses
// immediately with ErrDegraded; any real failure (including an injected
// one) feeds the breaker.
func (s *Store) writeBlob(rel string, data []byte) error {
	if !s.ioAllow() {
		return ErrDegraded
	}
	if err := resilience.Fire(resilience.PointStoreWrite); err != nil {
		s.ioFailure()
		return fmt.Errorf("store: writing %s: %w", rel, err)
	}
	if err := s.backend.Put(rel, data); err != nil {
		s.ioFailure()
		return err
	}
	s.ioSuccess()

	if s.shared {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[rel]; ok {
		s.bytes -= old.size
	}
	s.entries[rel] = entry{size: int64(len(data)), added: time.Now()}
	s.bytes += int64(len(data))
	s.gcLocked(rel)
	return nil
}

// readBlob fetches rel's bytes through the breaker and the fault
// injector, booking hit/miss/fault counters for everything except
// verification (the caller's job, since only it knows the format).
// A false return is already fully booked as a miss.
func (s *Store) readBlob(rel string) ([]byte, bool) {
	if !s.shared {
		if _, ok := s.lookup(rel); !ok {
			return nil, false
		}
	}
	if !s.ioAllow() {
		s.mu.Lock()
		s.counters.Misses++
		s.mu.Unlock()
		return nil, false
	}
	if err := resilience.Fire(resilience.PointStoreRead); err != nil {
		s.ioFailure()
		s.mu.Lock()
		s.counters.Misses++
		s.mu.Unlock()
		return nil, false
	}
	data, err := s.backend.Get(rel)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Vanished under GC (or never shared-stored): a benign miss,
			// not an I/O fault.
			s.ioSuccess()
		} else {
			s.ioFailure()
		}
		s.miss(rel)
		return nil, false
	}
	s.ioSuccess()
	return data, true
}

// gcLocked evicts oldest-first until the byte budget holds again. The
// just-written entry keep is never evicted (serving one oversized
// artifact beats serving none); s.mu held. No-op on shared backends.
func (s *Store) gcLocked(keep string) {
	if s.shared || s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		rel   string
		added time.Time
	}
	victims := make([]aged, 0, len(s.entries))
	for rel, e := range s.entries {
		if rel != keep && !s.pinned[rel] {
			victims = append(victims, aged{rel, e.added})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].added.Equal(victims[j].added) {
			return victims[i].added.Before(victims[j].added)
		}
		return victims[i].rel < victims[j].rel
	})
	for _, v := range victims {
		if s.bytes <= s.maxBytes {
			break
		}
		s.removeLocked(v.rel)
		s.counters.Evictions++
	}
	// A GC pass also sweeps orphaned temp files — debris from writers
	// that died between CreateTemp and rename.
	s.sweepTempsLocked()
}

// sweepTempsLocked delegates the temp sweep to a backend that has one;
// s.mu held (the backend synchronises itself — it never calls back into
// the store).
func (s *Store) sweepTempsLocked() int {
	sw, ok := s.backend.(interface{ SweepTemps() int })
	if !ok {
		return 0
	}
	n := sw.SweepTemps()
	s.counters.TempsSwept += uint64(n)
	return n
}

// removeLocked drops an entry from the index and the backend; s.mu held.
func (s *Store) removeLocked(rel string) {
	if e, ok := s.entries[rel]; ok {
		s.bytes -= e.size
		delete(s.entries, rel)
	}
	_ = s.backend.Delete(rel)
}

// lookup checks rel against the local index (owned backends only; shared
// stores go straight to the backend).
func (s *Store) lookup(rel string) (entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[rel]
	if !ok {
		s.counters.Misses++
		return entry{}, false
	}
	return e, true
}

// miss books a plain miss discovered after the index lookup (e.g. the
// blob vanished under GC on another store handle).
func (s *Store) miss(rel string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Misses++
	if e, ok := s.entries[rel]; ok {
		s.bytes -= e.size
		delete(s.entries, rel)
	}
}

// corrupt books a failed verification: the blob is quarantined (moved
// aside, never silently deleted) and the lookup reported as a miss, so
// the caller transparently recomputes and the next Get of the same key
// misses cleanly instead of re-reading the same bad bytes — a corrupt
// artifact is handled exactly once.
func (s *Store) corrupt(rel string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Corrupt++
	s.counters.Misses++
	s.quarantineLocked(rel)
}

// quarantineLocked moves rel out of the served namespace: dropped from
// the local index, then moved into the backend's quarantine area when
// the backend supports it, deleted otherwise (the pre-quarantine
// behaviour — a shared HTTP backend quarantines coordinator-side via
// the blob protocol). s.mu held.
func (s *Store) quarantineLocked(rel string) {
	if e, ok := s.entries[rel]; ok {
		s.bytes -= e.size
		delete(s.entries, rel)
	}
	if q, ok := s.backend.(Quarantiner); ok {
		if q.Quarantine(rel) == nil {
			s.counters.Quarantined++
			return
		}
	}
	_ = s.backend.Delete(rel)
}

// QuarantineBlob moves an artifact into quarantine by "kind/name" key,
// booking it as corrupt — the integrity scrubber's entry point when its
// own verification pass fails a blob.
func (s *Store) QuarantineBlob(key string) error {
	kind, name, err := SplitKey(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Corrupt++
	s.quarantineLocked(kind + "/" + name)
	return nil
}

// hit books a verified read.
func (s *Store) hit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Hits++
}

// Pooled gzip state: a flate compressor carries ~650 KB of hash tables at
// any level, more to allocate and clear per artifact than to frame one.
var (
	gzipWriters = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.NoCompression) // the level is valid
		return zw
	}}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// writeMeta appends v, gob-encoded and gzip-framed, to buf: the metadata
// section of both layouts. Stored blocks, not deflate: the framing and its
// trailer CRC are what readMeta and the scrubber check, while deflating an
// LA result's 51 KB of metadata took 3 ms to shave 3 % off a 1 MB file.
// Streams deflated by earlier commits are the same format and still read.
func writeMeta(buf *bytes.Buffer, v any) error {
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(buf)
	if err := gob.NewEncoder(zw).Encode(v); err != nil {
		return err
	}
	return zw.Close()
}

// encodeEnvelope frames v in the AIRSTOR1 layout.
func encodeEnvelope(v any) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, envelopeHeader, 4096))
	if err := writeMeta(buf, v); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	copy(out, envelopeMagic)
	binary.LittleEndian.PutUint32(out[crcOffset:], crc32.ChecksumIEEE(out[envelopeHeader:]))
	binary.LittleEndian.PutUint64(out[crcEnd:], uint64(len(out)-envelopeHeader))
	return out, nil
}

// encodeResult frames res in the result layout: the metadata (a few KB)
// is encoded first so that the one result-sized buffer is allocated at
// its exact final length.
func encodeResult(res *core.Result) ([]byte, error) {
	bare := *res
	bare.Final = nil
	var meta bytes.Buffer
	if err := writeMeta(&meta, &bare); err != nil {
		return nil, err
	}
	out := make([]byte, resultHeader+meta.Len()+8*len(res.Final))
	copy(out, resultMagic)
	binary.LittleEndian.PutUint64(out[crcEnd:], uint64(meta.Len()))
	binary.LittleEndian.PutUint64(out[crcEnd+8:], uint64(len(res.Final)))
	floats := out[resultHeader+copy(out[resultHeader:], meta.Bytes()):]
	// encoding/binary's []float64 fast path, minus its intermediate buffer.
	for i, v := range res.Final {
		binary.LittleEndian.PutUint64(floats[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(out[crcOffset:], crc32.ChecksumIEEE(out[crcEnd:]))
	return out, nil
}

// openFrame is the one place a stored frame's magic, checksum and
// section lengths are parsed: both layouts, read and verify alike. The
// lengths must account for every byte present (a truncated or over-long
// blob is corrupt) and nothing is allocated from them: the sections come
// back as sub-slices of data. floats is nil for an AIRSTOR1 frame and
// non-nil, possibly empty, for a result frame.
func openFrame(data []byte) (meta, floats []byte, err error) {
	// An empty gzip stream is 20 bytes, so no valid frame of either
	// layout is as short as the longer header.
	if len(data) < resultHeader {
		return nil, nil, fmt.Errorf("frame truncated at %d bytes", len(data))
	}
	magic, crc := string(data[:crcOffset]), binary.LittleEndian.Uint32(data[crcOffset:])
	metaLen, nFloats := binary.LittleEndian.Uint64(data[crcEnd:]), uint64(0)
	// AIRSTOR1: the checksum covers the payload, not its length field.
	summed, body := data[envelopeHeader:], data[envelopeHeader:]
	switch magic {
	case envelopeMagic:
	case resultMagic:
		nFloats = binary.LittleEndian.Uint64(data[crcEnd+8:])
		summed, body = data[crcEnd:], data[resultHeader:]
	default:
		return nil, nil, fmt.Errorf("bad magic %q", magic)
	}
	if metaLen == 0 || metaLen > maxPayload || nFloats > maxPayload/8 || metaLen+8*nFloats != uint64(len(body)) {
		return nil, nil, fmt.Errorf("section lengths %d+8*%d disagree with the %d bytes present", metaLen, nFloats, len(body))
	}
	if got := crc32.ChecksumIEEE(summed); got != crc {
		return nil, nil, fmt.Errorf("checksum mismatch: file %08x, computed %08x", crc, got)
	}
	if magic == resultMagic {
		floats = body[metaLen:]
	}
	return body[:metaLen], floats, nil
}

// readMeta decompresses a metadata section and gob-decodes it into v
// (nil: decompress only), then reads the stream to EOF so the gzip
// trailer's checksum over the uncompressed bytes is verified as well.
func readMeta(meta []byte, v any) error {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(meta)); err != nil {
		return err
	}
	if v != nil {
		if err := gob.NewDecoder(zr).Decode(v); err != nil {
			return err
		}
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return fmt.Errorf("decompressing payload: %w", err)
	}
	return nil
}

// readEnvelope verifies an AIRSTOR1 frame and decodes its payload into v
// (nil: verify only).
func readEnvelope(data []byte, v any) error {
	meta, floats, err := openFrame(data)
	if err != nil {
		return err
	}
	if floats != nil {
		return fmt.Errorf("%s frame where %s was expected", resultMagic, envelopeMagic)
	}
	return readMeta(meta, v)
}

// decodeResult verifies and decodes a stored result in either layout.
func decodeResult(data []byte) (*core.Result, error) {
	meta, floats, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	var res core.Result
	if err := readMeta(meta, &res); err != nil {
		return nil, err
	}
	if len(floats) > 0 {
		res.Final = make([]float64, len(floats)/8)
		for i := range res.Final {
			res.Final[i] = math.Float64frombits(binary.LittleEndian.Uint64(floats[8*i:]))
		}
	}
	if res.Trace != nil && len(res.Final) != res.Trace.Shape.Len() {
		return nil, fmt.Errorf("%d final concentrations for shape %v", len(res.Final), res.Trace.Shape)
	}
	return &res, nil
}

// putEncoded writes one artifact; encode runs only for a valid key.
func (s *Store) putEncoded(kind, hash, ext string, encode func() ([]byte, error)) error {
	rel, err := relpath(kind, hash, ext)
	if err != nil {
		return err
	}
	data, err := encode()
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", rel, err)
	}
	return s.writeBlob(rel, data)
}

// putEnveloped writes one AIRSTOR1-framed artifact.
func (s *Store) putEnveloped(kind, hash, ext string, v any) error {
	return s.putEncoded(kind, hash, ext, func() ([]byte, error) { return encodeEnvelope(v) })
}

// getVerified reads one artifact and hands its bytes to verify, which
// checks and decodes them; only a blob that passes is booked as a hit.
// Index misses skip the breaker entirely (no I/O follows); once the
// index hits, the actual read is gated and scored.
func (s *Store) getVerified(kind, hash, ext string, verify func(data []byte) error) bool {
	rel, err := relpath(kind, hash, ext)
	if err != nil {
		return false
	}
	data, ok := s.readBlob(rel)
	if !ok {
		return false
	}
	if err := verify(data); err != nil {
		// Corruption counts against the breaker: one flipped bit is a
		// payload problem, a streak is a medium problem.
		s.ioFailure()
		s.corrupt(rel)
		return false
	}
	s.hit()
	return true
}

// getEnveloped reads and verifies one AIRSTOR1-framed artifact into v.
func (s *Store) getEnveloped(kind, hash, ext string, v any) bool {
	return s.getVerified(kind, hash, ext, func(data []byte) error { return readEnvelope(data, v) })
}

// PutResult stores a completed run result, whole, under the scenario
// hash: the self-contained form, for a store that holds no physics to
// assemble it from. The scheduler writes rows (PutManifest) instead.
func (s *Store) PutResult(specHash string, res *core.Result) error {
	return s.putEncoded(kindResult, specHash, ".res", func() ([]byte, error) { return encodeResult(res) })
}

// GetResult returns the stored result for a scenario hash, from the
// store's own artifacts alone (see Restore). Corrupt entries are
// quarantined and reported as a miss.
func (s *Store) GetResult(specHash string) (*core.Result, bool) {
	return s.Restore(specHash, s.Physics)
}

// Physics reads the physics a row names from the store, verified: one
// record per hour and the end-of-run checkpoint's concentrations, or
// nothing if a record is missing or fails its checks.
func (s *Store) Physics(row *SpecManifest) (hours []*PhysicsRecord, final []float64) {
	for _, ph := range row.PrefixHashes {
		rec, ok := s.GetRecord(ph)
		if !ok {
			return nil, nil
		}
		if hours = append(hours, rec); len(hours) == len(row.PrefixHashes) {
			cp, _ := s.CheckpointState(ph)
			final = cp.Conc
		}
	}
	return hours, final
}

// Restore is the one way a stored result is read back: a row joined with
// the physics it names, which physics resolves from wherever the caller
// holds it verified (Physics reads the store; the scheduler asks its
// cache first). A row whose physics does not come back whole is a miss,
// never half an answer. Without a row, a whole frame under results/ is
// served: what PutResult writes, and all that stores from before rows hold.
func (s *Store) Restore(specHash string, physics func(row *SpecManifest) (hours []*PhysicsRecord, final []float64)) (res *core.Result, ok bool) {
	if _, err := relpath(kindSpec, specHash, ".spec"); err != nil {
		return nil, false
	}
	row, found := s.GetManifest(specHash)
	if found && row.Priced() {
		res, err := Assemble(physics(row))
		if err != nil || len(res.Trace.Hours) != len(row.PrefixHashes) {
			return nil, false
		}
		row.price(res)
		return res, true
	}
	if !found {
		// One result looked for in two places is one lookup: the frame
		// read below books the miss, if it is one.
		s.mu.Lock()
		s.counters.Misses--
		s.mu.Unlock()
	}
	ok = s.getVerified(kindResult, specHash, ".res", func(data []byte) (err error) {
		res, err = decodeResult(data)
		return err
	})
	return res, ok
}

// Assemble stitches a run's physics — one record per hour from the run
// start, and the concentrations at their end — into a core.Result with no
// pricing yet (core.Price sets it), sharing the records' and final's
// slices.
func Assemble(hours []*PhysicsRecord, final []float64) (*core.Result, error) {
	if len(hours) == 0 {
		return nil, fmt.Errorf("store: no hour records to assemble")
	}
	tr := &core.Trace{Dataset: hours[0].Trace.Dataset, Shape: hours[0].Trace.Shape}
	if len(final) != tr.Shape.Len() {
		return nil, fmt.Errorf("store: %d final concentrations for shape %v", len(final), tr.Shape)
	}
	res := &core.Result{Trace: tr, Final: final}
	for _, rec := range hours {
		tr.Hours = append(tr.Hours, rec.Trace.Hours...)
		res.HourlyPeakO3 = append(res.HourlyPeakO3, rec.HourlyPeakO3...)
		res.HourlyPeakCell = append(res.HourlyPeakCell, rec.HourlyPeakCell...)
	}
	res.TotalSteps = tr.TotalSteps()
	for i, v := range res.HourlyPeakO3 {
		if v > res.PeakO3 {
			res.PeakO3, res.PeakO3Cell = v, res.HourlyPeakCell[i]
		}
	}
	return res, nil
}

// PutRecord stores a physics record under a physics-prefix hash.
func (s *Store) PutRecord(prefixHash string, rec *PhysicsRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	return s.putEnveloped(kindRecord, prefixHash, ".rec", rec)
}

// GetRecord returns the physics record for a physics-prefix hash.
func (s *Store) GetRecord(prefixHash string) (*PhysicsRecord, bool) {
	var rec PhysicsRecord
	// Decoded but inconsistent is corruption like any CRC failure.
	if !s.getVerified(kindRecord, prefixHash, ".rec", func(data []byte) error {
		if err := readEnvelope(data, &rec); err != nil {
			return err
		}
		return rec.Validate()
	}) {
		return nil, false
	}
	return &rec, true
}

// PutCheckpoint stores the end-of-hour concentration state of a physics
// prefix in the hourio snapshot format (hour is the last completed hour,
// so the prefix covers [StartHour, hour]).
func (s *Store) PutCheckpoint(prefixHash string, hour, ns, nl, ncells int, conc []float64) error {
	return s.putEncoded(kindCheckpoint, prefixHash, ".snap", func() ([]byte, error) {
		var buf bytes.Buffer
		_, err := hourio.WriteSnapshot(&buf, hour, ns, nl, ncells, conc)
		return buf.Bytes(), err
	})
}

// CheckpointState is a stored checkpoint, verified and decoded once.
type CheckpointState struct {
	Hour  int // last completed hour
	Shape dist.Shape
	Conc  []float64
	Data  []byte // the snapshot bytes Conc came from, as core.RestartReader wants them
}

// CheckpointState verifies (full read, CRC) and returns the checkpoint
// for a physics-prefix hash. Corrupt entries are quarantined and
// reported as a miss.
func (s *Store) CheckpointState(prefixHash string) (cp CheckpointState, ok bool) {
	if !s.getVerified(kindCheckpoint, prefixHash, ".snap", func(data []byte) (err error) {
		cp.Data = data
		cp.Hour, cp.Shape.Species, cp.Shape.Layers, cp.Shape.Cells, cp.Conc, _, err = hourio.ReadSnapshot(bytes.NewReader(data))
		return err
	}) {
		return CheckpointState{}, false
	}
	return cp, true
}

// Checkpoint is CheckpointState for a caller that only wants the
// snapshot bytes and their hour.
func (s *Store) Checkpoint(prefixHash string) (data []byte, hour int, ok bool) {
	cp, ok := s.CheckpointState(prefixHash)
	return cp.Data, cp.Hour, ok
}

// SpecManifest is one completed run as the store keeps it — a row: the
// scenario spec that produced it, the physics-prefix hashes its execution
// wrote records and checkpoints under, and the run's pricing, everything
// of its core.Result that machine, node count and mode decide. The
// physics — trace, peaks, Final — is what those hashes name, stored once
// however many rows price it; Restore puts the two back together. Content
// hashes cannot be inverted back to specs, so the row is also the
// integrity scrubber's repair map: a quarantined record or checkpoint
// resolves to a spec by scanning rows' prefix hashes, and re-running the
// spec regenerates the artifact bit-identically.
type SpecManifest struct {
	// Spec is the canonical JSON encoding of the scenario.Spec, kept as
	// raw bytes so the store stays independent of the scenario package.
	Spec []byte
	// PrefixHashes are the spec's physics-prefix boundary hashes, one per
	// hour: each keys that hour's record and end-of-hour checkpoint, the
	// last one the end-of-run state.
	PrefixHashes []string

	// The pricing (SetPricing); all zero in a manifest from before rows,
	// whose result is a whole frame. Gob writes a map in iteration order,
	// so the result's maps are kept as value slices in their keys'
	// canonical order: a row's bytes are a function of its content, and a
	// row written again — by a repair, a re-persist, another fleet worker
	// — is the same blob.
	Machine         string // the ledger's
	Nodes           int
	Total           float64
	ByCat           []float64 // per vm.Categories()
	NodeUtilization []float64
	Efficiency      float64
	CommSeconds     []float64 // per core.RedistKinds()
	RedistCounts    []int     // likewise; 0: the kind never ran, and has no map entry
}

// Priced reports whether the manifest carries a pricing, i.e. is a row.
func (m *SpecManifest) Priced() bool { return m.Nodes > 0 }

// SetPricing copies res's pricing, as core produces it, into the row.
func (m *SpecManifest) SetPricing(res *core.Result) error {
	m.Machine, m.Nodes, m.Total = res.Ledger.Machine, res.Ledger.Nodes, res.Ledger.Total
	m.NodeUtilization, m.Efficiency = res.NodeUtilization, res.Efficiency
	m.ByCat, m.CommSeconds, m.RedistCounts = nil, nil, nil
	for _, c := range vm.Categories() {
		m.ByCat = append(m.ByCat, res.Ledger.ByCat[c])
	}
	for _, k := range core.RedistKinds() {
		m.CommSeconds, m.RedistCounts = append(m.CommSeconds, res.CommSeconds[k]), append(m.RedistCounts, res.RedistCounts[k])
	}
	return m.validate()
}

// price copies the row's pricing into res, SetPricing's inverse.
func (m *SpecManifest) price(res *core.Result) {
	res.Ledger = vm.Ledger{Machine: m.Machine, Nodes: m.Nodes, Total: m.Total, ByCat: make(map[vm.Category]float64, len(m.ByCat))}
	for i, c := range vm.Categories() {
		res.Ledger.ByCat[c] = m.ByCat[i]
	}
	res.NodeUtilization, res.Efficiency = m.NodeUtilization, m.Efficiency
	res.CommSeconds, res.RedistCounts = make(map[string]float64), make(map[string]int)
	for i, k := range core.RedistKinds() {
		if n := m.RedistCounts[i]; n > 0 {
			res.CommSeconds[k], res.RedistCounts[k] = m.CommSeconds[i], n
		}
	}
}

// validate refuses half a pricing: a manifest with any pricing in it must
// be a whole row — a machine, nodes, a second per ledger category, a
// utilization per node, seconds and a count per redistribution kind, at
// least one physics prefix.
func (m *SpecManifest) validate() error {
	if m.Machine == "" && m.Nodes == 0 && m.Total == 0 && m.Efficiency == 0 &&
		len(m.ByCat)+len(m.NodeUtilization)+len(m.CommSeconds)+len(m.RedistCounts) == 0 {
		return nil
	}
	kinds := len(core.RedistKinds())
	if m.Machine == "" || m.Nodes <= 0 || len(m.ByCat) != len(vm.Categories()) || len(m.NodeUtilization) != m.Nodes ||
		len(m.CommSeconds) != kinds || len(m.RedistCounts) != kinds || len(m.PrefixHashes) == 0 {
		return fmt.Errorf("store: row priced for %q on %d nodes has %d ledger categories, %d node utilizations, %d+%d redistribution kinds, %d physics prefixes",
			m.Machine, m.Nodes, len(m.ByCat), len(m.NodeUtilization), len(m.CommSeconds), len(m.RedistCounts), len(m.PrefixHashes))
	}
	return nil
}

// decodeRow verifies and decodes a stored manifest, priced or not.
func decodeRow(data []byte) (*SpecManifest, error) {
	var m SpecManifest
	if err := readEnvelope(data, &m); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// PutManifest stores a run's row under its scenario hash.
func (s *Store) PutManifest(specHash string, m *SpecManifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return s.putEnveloped(kindSpec, specHash, ".spec", m)
}

// GetManifest returns the row (or unpriced manifest) for a scenario hash.
func (s *Store) GetManifest(specHash string) (m *SpecManifest, ok bool) {
	ok = s.getVerified(kindSpec, specHash, ".spec", func(data []byte) (err error) {
		m, err = decodeRow(data)
		return err
	})
	return m, ok
}

// SRMatrixKey is the blob key of a stored source–receptor matrix, the
// form Pin and the blob listing expect.
func SRMatrixKey(matrixKey string) string {
	return kindSRMatrix + "/" + matrixKey + ".srm"
}

// PutSRMatrix stores a source–receptor matrix under its content key
// (internal/sr computes the key over the base run's physics-prefix hash
// and the perturbation-set hash). The value is any gob-encodable type —
// the store only frames, checksums and persists it, exactly like results
// and records.
func (s *Store) PutSRMatrix(matrixKey string, m any) error {
	return s.putEnveloped(kindSRMatrix, matrixKey, ".srm", m)
}

// GetSRMatrix decodes the stored source–receptor matrix for a content
// key into m. Corrupt entries are quarantined and reported as a miss.
func (s *Store) GetSRMatrix(matrixKey string, m any) bool {
	return s.getEnveloped(kindSRMatrix, matrixKey, ".srm", m)
}

// PutBlob stores an already-serialised artifact under a validated
// "kind/name" key — the coordinator side of the fleet HTTP store, where
// workers upload enveloped blobs they framed themselves. The blob is
// indexed and GC'd like any locally-written artifact; its content is NOT
// verified here (the reader's CRC check is the integrity authority).
func (s *Store) PutBlob(key string, data []byte) error {
	kind, name, err := SplitKey(key)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("store: empty blob %s", key)
	}
	return s.writeBlob(kind+"/"+name, data)
}

// GetBlob returns an artifact's raw bytes by "kind/name" key. A missing
// blob reports fs.ErrNotExist; ErrDegraded while the breaker is open.
// Under SetVerifyReads the bytes are re-verified (framing + checksums)
// before being served; a blob failing that check is quarantined and
// reported as missing, so a coordinator can never hand a fleet worker
// bytes that rotted after their original write.
func (s *Store) GetBlob(key string) ([]byte, error) {
	kind, name, err := SplitKey(key)
	if err != nil {
		return nil, err
	}
	rel := kind + "/" + name
	data, ok := s.readBlob(rel)
	if !ok {
		if s.Degraded() {
			return nil, ErrDegraded
		}
		return nil, fmt.Errorf("store: %s: %w", rel, fs.ErrNotExist)
	}
	if s.verifyReads.Load() {
		if err := VerifyBlob(rel, data); err != nil {
			s.ioFailure()
			s.corrupt(rel)
			return nil, fmt.Errorf("store: %s: %w", rel, fs.ErrNotExist)
		}
	}
	s.hit()
	return data, nil
}

// VerifyBlob checks data's integrity for its artifact kind: checkpoints
// verify through the hourio snapshot format (magic, dimensions, trailing
// CRC); results through exactly the decode GetResult runs (either
// layout: frame CRC over every section, section lengths against the
// blob's size, float count against the trace's shape); rows through the
// decode GetManifest runs (a pricing is whole or absent); every other kind,
// whose payload type the store does not know, through the AIRSTOR1 frame
// (magic, length, payload CRC) plus a full gzip decompression, whose
// stream carries its own trailing checksum. A nil return means every
// checksum on the blob's bytes holds.
func VerifyBlob(key string, data []byte) error {
	kind, _, err := SplitKey(key)
	if err != nil {
		return err
	}
	switch kind {
	case kindCheckpoint:
		_, _, _, _, _, _, err = hourio.ReadSnapshot(bytes.NewReader(data))
	case kindResult:
		_, err = decodeResult(data)
	case kindSpec:
		_, err = decodeRow(data)
	default:
		err = readEnvelope(data, nil)
	}
	if err != nil {
		return resilience.MarkCorrupt(fmt.Errorf("store: %s: %w", key, err))
	}
	return nil
}

// DeleteBlob removes an artifact by "kind/name" key.
func (s *Store) DeleteBlob(key string) error {
	kind, name, err := SplitKey(key)
	if err != nil {
		return err
	}
	rel := kind + "/" + name
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(rel)
	return nil
}

// ListBlobs enumerates the stored artifacts.
func (s *Store) ListBlobs() ([]BlobInfo, error) {
	return s.backend.List()
}

// Len returns the number of indexed artifacts (0 on shared backends).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the indexed artifact volume (0 on shared backends).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
