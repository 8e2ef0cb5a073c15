package store

import (
	"strings"
	"testing"
)

// srPayload stands in for an sr.Matrix — the store is generic over gob
// payloads, so the pin contract is testable without building one.
type srPayload struct {
	Key  string
	Data []byte
}

// Satellite contract: a GC pass must never evict a pinned SR matrix —
// a daemon serving a matrix pins its blob, and eviction mid-serve
// would turn the next fault-in into a rebuild (or a 404 on a shared
// store). Companion to TestGCNeverEvictsInFlightWrite: that one covers
// the artifact being written, this one covers artifacts being served.
func TestGCNeverEvictsPinnedSRMatrix(t *testing.T) {
	s, err := Open(t.TempDir(), 1) // every artifact is over budget
	if err != nil {
		t.Fatal(err)
	}
	matrix := &srPayload{Key: "m", Data: make([]byte, 1024)}
	if err := s.PutSRMatrix("aaaa", matrix); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(SRMatrixKey("aaaa")); err != nil {
		t.Fatal(err)
	}
	if s.Counters().Pinned != 1 {
		t.Fatal("pinned gauge did not advance")
	}

	// Every subsequent write triggers a GC pass that wants to evict
	// everything (budget is 1 byte). The pinned matrix must survive
	// all of them; the unpinned results are fair game.
	for i := 0; i < 4; i++ {
		name := strings.Repeat("b", 4+i)
		if err := s.putEnveloped(kindResult, name, ".res", &srPayload{Key: name}); err != nil {
			t.Fatal(err)
		}
		var got srPayload
		if !s.GetSRMatrix("aaaa", &got) || got.Key != "m" {
			t.Fatalf("GC pass %d evicted the pinned matrix mid-serve", i)
		}
	}

	// Pinning twice holds one pin.
	if err := s.Pin(SRMatrixKey("aaaa")); err != nil {
		t.Fatal(err)
	}
	if s.Counters().Pinned != 1 {
		t.Fatal("pinned gauge counts a key twice")
	}

	// An unpinned matrix is fair game for the next GC pass.
	if err := s.PutSRMatrix("eeee", matrix); err != nil {
		t.Fatal(err)
	}
	if err := s.putEnveloped(kindResult, "dddd", ".res", &srPayload{Key: "d"}); err != nil {
		t.Fatal(err)
	}
	var got srPayload
	if s.GetSRMatrix("eeee", &got) {
		t.Fatal("unpinned over-budget matrix survived GC — eviction is broken")
	}
	if !s.GetSRMatrix("aaaa", &got) {
		t.Fatal("GC evicted the pinned matrix")
	}
}

func TestPinValidatesKeys(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"", "noslash", "unknown/kind.x", "results/../escape.res",
		"srmatrices/tmp-123.srm",
	} {
		if err := s.Pin(bad); err == nil {
			t.Errorf("Pin(%q) accepted an invalid key", bad)
		}
	}
	if got := s.Counters().Pinned; got != 0 {
		t.Fatalf("pinned gauge %d after refused pins", got)
	}
}

// SR matrices round-trip through the enveloped store like any other
// artifact kind: checksummed, versioned, corrupt-safe.
func TestSRMatrixRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	in := &srPayload{Key: "k", Data: []byte{1, 2, 3}}
	if err := s.PutSRMatrix("feedface", in); err != nil {
		t.Fatal(err)
	}
	var out srPayload
	if !s.GetSRMatrix("feedface", &out) {
		t.Fatal("stored matrix not found")
	}
	if out.Key != in.Key || len(out.Data) != 3 {
		t.Fatal("matrix did not round-trip")
	}
	if s.GetSRMatrix("0000beef", &out) {
		t.Fatal("missing matrix reported as present")
	}
}
