package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"airshed/internal/core"
	"airshed/internal/dist"
)

const blobKey = "results/x.res"

// smallResult is the mini run's result cut down to a few hundred floats:
// the real trace, ledger and peaks, a 5×2×20 shape and the first 200
// final concentrations — small enough to corrupt exhaustively.
func smallResult(t testing.TB) *core.Result {
	t.Helper()
	res := *testResult(t)
	sh := dist.Shape{Species: 5, Layers: 2, Cells: 20}
	res.Trace = &core.Trace{Dataset: res.Trace.Dataset, Shape: sh, Hours: res.Trace.Hours}
	res.Final = res.Final[:sh.Len()]
	return &res
}

func mustEncode(t testing.TB, res *core.Result) []byte {
	t.Helper()
	blob, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reseal recomputes a blob's frame checksum after a test edited the bytes
// under it, so the edit reaches the checks behind the CRC. Blobs too
// short or with another magic come back unchanged.
func reseal(blob []byte) []byte {
	out := bytes.Clone(blob)
	switch {
	case len(out) >= resultHeader && string(out[:crcOffset]) == resultMagic:
		binary.LittleEndian.PutUint32(out[crcOffset:], crc32.ChecksumIEEE(out[crcEnd:]))
	case len(out) >= envelopeHeader && string(out[:crcOffset]) == envelopeMagic:
		binary.LittleEndian.PutUint32(out[crcOffset:], crc32.ChecksumIEEE(out[envelopeHeader:]))
	}
	return out
}

// holding opens a fresh store over a memory backend that already holds
// blob under blobKey (a fresh store also means a fresh breaker).
func holding(t testing.TB, blob []byte) (*Store, *MemBackend) {
	t.Helper()
	b := NewMemBackend()
	if err := b.Put(blobKey, blob); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBackend(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// mustReject asserts blob fails both verification paths the same way a
// CRC failure does: GetResult misses, VerifyBlob errors, and the bytes
// are quarantined intact and counted exactly once.
func mustReject(t testing.TB, blob []byte, what string) {
	t.Helper()
	if VerifyBlob(blobKey, blob) == nil {
		t.Fatalf("%s: VerifyBlob accepted", what)
	}
	s, b := holding(t, blob)
	if _, ok := s.GetResult("x"); ok {
		t.Fatalf("%s: GetResult served", what)
	}
	if q, ok := b.Quarantined(blobKey); !ok || !bytes.Equal(q, blob) {
		t.Fatalf("%s: rejected bytes not preserved in quarantine", what)
	}
	if _, err := b.Get(blobKey); err == nil {
		t.Fatalf("%s: rejected blob still served by the backend", what)
	}
	if c := s.Counters(); c.Hits != 0 || c.Misses != 1 || c.Corrupt != 1 || c.Quarantined != 1 || c.Faults != 1 {
		t.Fatalf("%s: counters %+v, want one miss, one corruption, one quarantine, one fault", what, c)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The acceptance loop: one flipped bit at every byte offset, truncation
// at every length and one appended byte are all rejected, by read and by
// scrub, and quarantined rather than deleted.
func TestResultLayoutRejectsEveryDamagedByte(t *testing.T) {
	res := smallResult(t)
	blob := mustEncode(t, res)
	if string(blob[:crcOffset]) != resultMagic {
		t.Fatalf("PutResult wrote magic %q, want %q", blob[:crcOffset], resultMagic)
	}
	metaLen := len(blob) - resultHeader - 8*len(res.Final)
	t.Logf("%d bytes: %d header, %d metadata, %d floats", len(blob), resultHeader, metaLen, len(res.Final))

	s, _ := holding(t, blob)
	back, ok := s.GetResult("x")
	if !ok || !sameBits(back.Final, res.Final) || back.Ledger.Total != res.Ledger.Total {
		t.Fatal("undamaged blob did not round-trip")
	}
	if err := VerifyBlob(blobKey, blob); err != nil {
		t.Fatalf("undamaged blob fails VerifyBlob: %v", err)
	}

	for off := range blob {
		bad := bytes.Clone(blob)
		bad[off] ^= 1 << (off % 8)
		mustReject(t, bad, "bit flipped")
	}
	for n := 1; n < len(blob); n++ {
		mustReject(t, blob[:n], "truncated")
	}
	if VerifyBlob(blobKey, nil) == nil {
		t.Error("empty blob verified")
	}
	mustReject(t, append(bytes.Clone(blob), 0), "one byte appended")
}

// Damage the frame checksum cannot see, because the writer (or an
// attacker, or a bug) sealed it in: lying lengths, a float count that
// disagrees with the trace, another magic.
func TestResultLayoutRejectsSealedInconsistency(t *testing.T) {
	res := smallResult(t)
	blob := mustEncode(t, res)
	n := uint64(len(res.Final))
	metaLen := uint64(len(blob)-resultHeader) - 8*n
	setMeta := func(b []byte, v uint64) []byte { binary.LittleEndian.PutUint64(b[crcEnd:], v); return b }
	setFloats := func(b []byte, v uint64) []byte { binary.LittleEndian.PutUint64(b[crcEnd+8:], v); return b }

	for name, damage := range map[string]func(b []byte) []byte{
		"metadata length one short":  func(b []byte) []byte { return setMeta(b, metaLen-1) },
		"metadata length zero":       func(b []byte) []byte { return setMeta(b, 0) },
		"metadata length huge":       func(b []byte) []byte { return setMeta(b, 1<<40) },
		"metadata length wraps":      func(b []byte) []byte { return setMeta(b, math.MaxUint64-7) },
		"float count one over":       func(b []byte) []byte { return setFloats(b, n+1) },
		"float count huge":           func(b []byte) []byte { return setFloats(b, 1<<27) },
		"float count wraps":          func(b []byte) []byte { return setFloats(b, 1<<61) },
		"one float dropped":          func(b []byte) []byte { return setFloats(b[:len(b)-8], n-1) },
		"one float added":            func(b []byte) []byte { return setFloats(append(b, make([]byte, 8)...), n+1) },
		"floats moved into metadata": func(b []byte) []byte { return setFloats(setMeta(b, metaLen+8*n), 0) },
		"unknown magic":              func(b []byte) []byte { copy(b, "AIRSRES3"); return b },
		"envelope magic on a result": func(b []byte) []byte { copy(b, envelopeMagic); return b },
	} {
		bad := reseal(damage(bytes.Clone(blob)))
		// A length field is never an allocation size: rejecting a 3 KB
		// blob that claims 2^27 floats must not cost a gigabyte.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeResult(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting it allocated %d bytes", name, grew)
		}
		mustReject(t, bad, name)
	}

	// The other kinds have no float section to read.
	b := NewMemBackend()
	if err := b.Put("records/x.rec", blob); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBackend(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetRecord("x"); ok {
		t.Error("a result frame was served as a record")
	}
	if VerifyBlob("records/x.rec", blob) == nil {
		t.Error("a result frame verified as a record")
	}
}

// Final travels as raw bits: nothing a float64 can hold is normalised.
func TestResultLayoutSpecialFloatsBitExact(t *testing.T) {
	bits := []uint64{
		0, 1 << 63, // ±0
		1, 1<<63 | 1, 0x000fffffffffffff, // denormals
		0x0010000000000000, 0x7fefffffffffffff, // smallest / largest normal
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8dead0000beef, // quiet NaNs with payloads
		0x7ff0000000000001, 0xfff4000000000000, // signalling NaNs
	}
	final := make([]float64, len(bits))
	for i, b := range bits {
		final[i] = math.Float64frombits(b)
	}
	s, err := OpenBackend(NewMemBackend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("special", &core.Result{Final: final}); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetResult("special")
	if !ok {
		t.Fatal("stored result not found")
	}
	for i, b := range bits {
		if got := math.Float64bits(back.Final[i]); got != b {
			t.Errorf("float %d: stored bits %016x, read back %016x", i, b, got)
		}
	}
	// No floats at all is a valid result too, and stays nil.
	if err := s.PutResult("empty", &core.Result{PeakO3: 0.25}); err != nil {
		t.Fatal(err)
	}
	if back, ok := s.GetResult("empty"); !ok || back.Final != nil || back.PeakO3 != 0.25 {
		t.Errorf("result without Final: ok=%v %+v", ok, back)
	}
}

// testdata/result_v1.res is the mini result as the last AIRSTOR1 writer
// (the commit before the result layout) stored it. Stores are
// persistent: it must keep reading, or every old result would be
// quarantined and scored against the breaker.
func TestResultV1FixtureStillReads(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "result_v1.res"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:crcOffset]) != envelopeMagic {
		t.Fatalf("fixture magic %q, want %q", blob[:crcOffset], envelopeMagic)
	}
	if err := VerifyBlob(blobKey, blob); err != nil {
		t.Fatalf("VerifyBlob: %v", err)
	}
	s, _ := holding(t, blob)
	got, ok := s.GetResult("x")
	if !ok {
		t.Fatal("GetResult missed the AIRSTOR1 fixture")
	}
	want := testResult(t)
	if !sameBits(got.Final, want.Final) || got.Ledger.Total != want.Ledger.Total || got.PeakO3 != want.PeakO3 {
		t.Errorf("fixture differs from a fresh run: ledger %v vs %v, peak %v vs %v",
			got.Ledger.Total, want.Ledger.Total, got.PeakO3, want.PeakO3)
	}
	if c := s.Counters(); c.Hits != 1 || c.Corrupt != 0 {
		t.Errorf("counters %+v, want one clean hit", c)
	}
	// Read both, write one: storing it again produces the result layout.
	if err := s.PutResult("x", got); err != nil {
		t.Fatal(err)
	}
	if again, err := s.Backend().Get(blobKey); err != nil || string(again[:crcOffset]) != resultMagic {
		t.Errorf("re-stored fixture has magic %q (err %v), want %q", again[:crcOffset], err, resultMagic)
	}
	// Damage and trailing bytes are rejected in the old layout as well.
	bad := bytes.Clone(blob)
	bad[len(bad)/2] ^= 0x40
	mustReject(t, bad, "bit-flipped AIRSTOR1 result")
	mustReject(t, append(bytes.Clone(blob), 0), "AIRSTOR1 result with a trailing byte")
}

// The quarantine tests flip the middle byte of the file; these two force
// the flipped byte into each section of a directory-backed result so
// neither is left to where the middle happens to fall.
func TestCorruptSectionQuarantinedNotDeleted(t *testing.T) {
	res := testResult(t)
	floatBytes := 8 * len(res.Final)
	for name, fromEnd := range map[string]int{
		"metadata": floatBytes + 1, // the metadata section's last byte: its gzip trailer
		"floats":   floatBytes / 2,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutResult("r1", res); err != nil {
				t.Fatal(err)
			}
			full := filepath.Join(dir, "results", "r1.res")
			data, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-fromEnd] ^= 0x40
			if err := os.WriteFile(full, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if VerifyBlob("results/r1.res", data) == nil {
				t.Error("scrub verification accepted the flipped byte")
			}
			if _, ok := s.GetResult("r1"); ok {
				t.Fatal("bit-flipped result served")
			}
			qdata, err := os.ReadFile(filepath.Join(dir, "quarantine", "results", "r1.res"))
			if err != nil || !bytes.Equal(qdata, data) {
				t.Fatalf("corrupt result not preserved in quarantine (err %v)", err)
			}
			if c := s.Counters(); c.Hits != 0 || c.Misses != 1 || c.Corrupt != 1 || c.Quarantined != 1 {
				t.Errorf("counters %+v, want one miss, one corruption, one quarantine", c)
			}
		})
	}
}

// A record that passes its CRC and decodes but is internally
// inconsistent is one corrupt lookup: a miss, never also a hit, and it
// feeds the breaker like any other corruption.
func TestInconsistentRecordIsOneCorruptMiss(t *testing.T) {
	s, err := OpenBackend(NewMemBackend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t)
	rec.HourlyPeakCell = nil // decodable, but Validate refuses it
	if err := s.putEnveloped(kindRecord, "bad", ".rec", rec); err != nil {
		t.Fatal(err)
	}
	before := s.Counters()
	if _, ok := s.GetRecord("bad"); ok {
		t.Fatal("inconsistent record served")
	}
	after := s.Counters()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt+1 ||
		after.Quarantined != before.Quarantined+1 || after.Faults != before.Faults+1 {
		t.Errorf("counters moved %+v -> %+v, want Hits +0, Misses +1, Corrupt +1, Quarantined +1, Faults +1", before, after)
	}
	if _, ok := s.Backend().(*MemBackend).Quarantined("records/bad.rec"); !ok {
		t.Error("inconsistent record not preserved in quarantine")
	}
	if _, ok := s.GetRecord("bad"); ok {
		t.Error("quarantined record served on the second lookup")
	}
}

// FuzzResultEnvelope: whatever the bytes, the read path and the scrub
// path reach the same verdict without panicking; a rejected blob is
// quarantined intact; an accepted one re-encodes to the same Final bits.
// Every input is tried as given and with its checksum recomputed, so the
// fuzzer gets behind the CRC to the length and shape checks.
func FuzzResultEnvelope(f *testing.F) {
	// Half-kilobyte seeds, a shaped trace with no hours: go test's input
	// minimiser is quadratic in input length, and on the 3 KB smallResult
	// (let alone the 72 KB mini result) it eats a 20 s fuzz budget whole.
	tiny := &core.Result{
		Trace:  &core.Trace{Dataset: "mini", Shape: dist.Shape{Species: 2, Layers: 1, Cells: 2}},
		Final:  []float64{0.04, math.Inf(1), math.Copysign(0, -1), 5e-324},
		PeakO3: 0.12,
	}
	v2 := mustEncode(f, tiny)
	v1, err := encodeEnvelope(tiny)
	if err != nil {
		f.Fatal(err)
	}
	for _, good := range [][]byte{v2, v1} {
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(good[:resultHeader])
		flipped := bytes.Clone(good)
		flipped[len(flipped)-9] ^= 0x10
		f.Add(flipped)
		lying := bytes.Clone(good)
		binary.LittleEndian.PutUint64(lying[crcEnd:], 1<<30)
		f.Add(lying)
		f.Add(append(bytes.Clone(good), "garbage"...))
	}
	manyFloats := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(manyFloats[crcEnd+8:], 1<<27)
	f.Add(manyFloats)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, reseal(data)} {
			verr := VerifyBlob(blobKey, blob)
			s, b := holding(t, blob)
			got, ok := s.GetResult("x")
			if ok != (verr == nil) {
				t.Fatalf("GetResult ok=%v but VerifyBlob says %v", ok, verr)
			}
			if !ok {
				if q, held := b.Quarantined(blobKey); !held || !bytes.Equal(q, blob) {
					t.Fatal("rejected blob not preserved in quarantine")
				}
				continue
			}
			if err := s.PutResult("again", got); err != nil {
				t.Fatal(err)
			}
			again, ok := s.GetResult("again")
			if !ok || !sameBits(again.Final, got.Final) {
				t.Fatal("accepted blob does not re-encode to the same Final bits")
			}
		}
	})
}

// storedBlocks reports whether the gzip stream at the head of section
// opens with a stored (uncompressed) deflate block: after the ten-byte
// gzip header, BTYPE — bits 1-2 of the first block byte — is 00.
func storedBlocks(t testing.TB, section []byte) bool {
	t.Helper()
	if len(section) < 11 || section[0] != 0x1f || section[1] != 0x8b || section[3] != 0 {
		t.Fatalf("not a plain gzip stream: % x", section[:min(len(section), 11)])
	}
	return section[10]>>1&3 == 0
}

// testdata/result_v2_deflate.res is the mini result as the commit before
// metadata stopped being deflated stored it: the same AIRSRES2 layout with
// a compressed gzip stream in the metadata section. It is the same format
// to every reader and must keep reading, next to result_v1.res.
func TestResultV2DeflateFixtureStillReads(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "result_v2_deflate.res"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:crcOffset]) != resultMagic {
		t.Fatalf("fixture magic %q, want %q", blob[:crcOffset], resultMagic)
	}
	if storedBlocks(t, blob[resultHeader:]) {
		t.Fatal("fixture metadata is not deflated; it no longer tests the old writer's output")
	}
	if err := VerifyBlob(blobKey, blob); err != nil {
		t.Fatalf("VerifyBlob: %v", err)
	}
	s, _ := holding(t, blob)
	got, ok := s.GetResult("x")
	if !ok {
		t.Fatal("GetResult missed the deflated AIRSRES2 fixture")
	}
	want := testResult(t)
	if !sameBits(got.Final, want.Final) || got.Ledger.Total != want.Ledger.Total || got.PeakO3 != want.PeakO3 ||
		got.Trace.SumChemFlops() != want.Trace.SumChemFlops() {
		t.Errorf("fixture differs from a fresh run: ledger %v vs %v, peak %v vs %v",
			got.Ledger.Total, want.Ledger.Total, got.PeakO3, want.PeakO3)
	}
	if c := s.Counters(); c.Hits != 1 || c.Corrupt != 0 {
		t.Errorf("counters %+v, want one clean hit", c)
	}
	// Stored again it is framed, not deflated: same magic, same floats, a
	// slightly longer metadata section.
	if err := s.PutResult("x", got); err != nil {
		t.Fatal(err)
	}
	again, err := s.Backend().Get(blobKey)
	if err != nil || string(again[:crcOffset]) != resultMagic || !storedBlocks(t, again[resultHeader:]) {
		t.Fatalf("re-stored fixture is not a stored-block %s frame (err %v)", resultMagic, err)
	}
	t.Logf("mini result: %d bytes deflated, %d bytes stored (+%.1f%%)", len(blob), len(again), 100*float64(len(again)-len(blob))/float64(len(blob)))
	if !bytes.Equal(again[len(again)-8*len(got.Final):], blob[len(blob)-8*len(got.Final):]) {
		t.Error("float sections differ between the two writers")
	}
	bad := bytes.Clone(blob)
	bad[resultHeader+40] ^= 0x04 // inside the deflate stream
	mustReject(t, bad, "bit-flipped deflated AIRSRES2 result")
	mustReject(t, reseal(bad), "bit flipped under a recomputed frame CRC: the gzip layer must object")
}

// One artifact of every enveloped kind round-trips through the
// stored-block writer, verifies as the scrubber verifies it, and still
// refuses a flipped bit behind a recomputed frame CRC (the gzip trailer
// covers the gob bytes at any level).
func TestEveryKindRoundTripsFramedNotDeflated(t *testing.T) {
	b := NewMemBackend()
	s, err := OpenBackend(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, rec := testResult(t), testRecord(t)
	man := &SpecManifest{Spec: []byte(`{"dataset":"mini","machine":"t3e","nodes":2,"hours":1}`), PrefixHashes: []string{strings.Repeat("ab", 32)}}
	srm := &srPayload{Key: "m", Data: bytes.Repeat([]byte{1, 2, 3, 5, 8, 13}, 400)}
	for _, err := range []error{s.PutResult("k", res), s.PutRecord("k", rec), s.PutManifest("k", man), s.PutSRMatrix("k", srm)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for key, header := range map[string]int{
		"results/k.res": resultHeader, "records/k.rec": envelopeHeader, "specs/k.spec": envelopeHeader, SRMatrixKey("k"): envelopeHeader,
	} {
		blob, err := b.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !storedBlocks(t, blob[header:]) {
			t.Errorf("%s: metadata is deflated", key)
		}
		if err := VerifyBlob(key, blob); err != nil {
			t.Errorf("%s: %v", key, err)
		}
		bad := bytes.Clone(blob)
		bad[header+30] ^= 0x20 // a gob byte inside the first stored block
		if VerifyBlob(key, bad) == nil || VerifyBlob(key, reseal(bad)) == nil {
			t.Errorf("%s: a flipped metadata bit verified", key)
		}
		t.Logf("%s: %d bytes", key, len(blob))
	}
	gotRes, ok1 := s.GetResult("k")
	gotRec, ok2 := s.GetRecord("k")
	gotMan, ok3 := s.GetManifest("k")
	var gotSRM srPayload
	ok4 := s.GetSRMatrix("k", &gotSRM)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("lookups: result %v record %v manifest %v matrix %v", ok1, ok2, ok3, ok4)
	}
	if !sameBits(gotRes.Final, res.Final) || !reflect.DeepEqual(gotRes.Trace, res.Trace) || !reflect.DeepEqual(gotRes.Ledger, res.Ledger) {
		t.Error("result did not round-trip")
	}
	if !reflect.DeepEqual(gotRec, rec) || !reflect.DeepEqual(gotMan, man) || !reflect.DeepEqual(&gotSRM, srm) {
		t.Error("record, manifest or matrix did not round-trip")
	}
}

// The gzip state is pooled: a PutRecord must not allocate (and clear) a
// flate compressor's ~650 KB of hash tables, nor a GetRecord a fresh
// inflater. Medians over single operations, so that a pool emptied by a
// GC cycle (or thinned by the race detector) costs one sample, not the test.
func TestMetaCodecStateIsPooled(t *testing.T) {
	s, err := OpenBackend(NewMemBackend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t)
	medianBytes := func(op func()) uint64 {
		op()
		deltas := make([]uint64, 41)
		var before, after runtime.MemStats
		for i := range deltas {
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			deltas[i] = after.TotalAlloc - before.TotalAlloc
		}
		sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
		return deltas[len(deltas)/2]
	}
	put := medianBytes(func() {
		if err := s.PutRecord("k", rec); err != nil {
			t.Fatal(err)
		}
	})
	get := medianBytes(func() {
		if _, ok := s.GetRecord("k"); !ok {
			t.Fatal("record missing")
		}
	})
	t.Logf("PutRecord %d bytes/op, GetRecord %d bytes/op", put, get)
	if put > 100<<10 {
		t.Errorf("PutRecord allocates %d bytes per call, want under 100 KB: the gzip writer is not reused", put)
	}
	if get > 48<<10 {
		t.Errorf("GetRecord allocates %d bytes per call, want under 48 KB: the gzip reader is not reused", get)
	}
}
