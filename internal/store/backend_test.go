package store

import (
	"net/http/httptest"
	"reflect"
	"testing"
)

func TestSplitKeyValidation(t *testing.T) {
	good := []string{
		"results/abc123.res",
		"records/ff_00-9.rec",
		"checkpoints/deadbeef.snap",
	}
	for _, key := range good {
		if _, _, err := SplitKey(key); err != nil {
			t.Errorf("SplitKey(%q) rejected valid key: %v", key, err)
		}
	}
	bad := []string{
		"",
		"results",
		"results/",
		"/abc.res",
		"blobs/abc.res",
		"results/../escape.res",
		"results/sub/abc.res",
		"results/abc",
		"results/tmp-123.res",
		"results/a b.res",
		"results/abc.res/extra",
	}
	for _, key := range bad {
		if _, _, err := SplitKey(key); err == nil {
			t.Errorf("SplitKey(%q) accepted invalid key", key)
		}
	}
}

func TestMemBackendStoreRoundTrip(t *testing.T) {
	s, err := OpenBackend(NewMemBackend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := s.PutResult("mem1", res); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetResult("mem1")
	if !ok {
		t.Fatal("stored result not found in mem backend")
	}
	if !reflect.DeepEqual(res.Final, back.Final) {
		t.Error("final concentrations did not round-trip through mem backend")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if _, ok := s.GetResult("absent"); ok {
		t.Error("missing hash found")
	}
}

func TestBlobAPIRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := s.PutResult("aa11", res); err != nil {
		t.Fatal(err)
	}

	infos, err := s.ListBlobs()
	if err != nil || len(infos) != 1 || infos[0].Key != "results/aa11.res" {
		t.Fatalf("ListBlobs = %v, %v", infos, err)
	}
	data, err := s.GetBlob("results/aa11.res")
	if err != nil || len(data) == 0 {
		t.Fatalf("GetBlob: %d bytes, %v", len(data), err)
	}
	// Raw bytes re-uploaded under a new key decode to the same result.
	if err := s.PutBlob("results/bb22.res", data); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetResult("bb22")
	if !ok || !reflect.DeepEqual(res.Final, back.Final) {
		t.Fatal("re-uploaded blob did not decode to the original result")
	}
	if err := s.PutBlob("results/../esc.res", data); err == nil {
		t.Error("traversal key accepted by PutBlob")
	}
	if err := s.DeleteBlob("results/bb22.res"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult("bb22"); ok {
		t.Error("deleted blob still served")
	}
}

// TestHTTPBackendAgainstBlobServer is the fleet store path end to end:
// a worker-side Store over HTTPBackend reads and writes a
// coordinator-side Store over a local directory, through the real HTTP
// handlers. Artifacts written by the worker are immediately servable by
// the coordinator and vice versa.
func TestHTTPBackendAgainstBlobServer(t *testing.T) {
	coord, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewBlobServer(coord))
	defer srv.Close()

	worker, err := OpenBackend(NewHTTPBackend(srv.URL, srv.Client()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !worker.shared {
		t.Fatal("HTTP-backed store must be shared")
	}

	res := testResult(t)
	sh := res.Trace.Shape

	// Worker writes; coordinator sees it without any sync step.
	if err := worker.PutResult("w1", res); err != nil {
		t.Fatal(err)
	}
	got, ok := coord.GetResult("w1")
	if !ok || !reflect.DeepEqual(res.Final, got.Final) {
		t.Fatal("worker-stored result not bit-identical on the coordinator")
	}

	// Coordinator writes; worker reads through HTTP.
	if err := coord.PutCheckpoint("pfx9", 2, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
		t.Fatal(err)
	}
	snap, hour, ok := worker.Checkpoint("pfx9")
	if !ok || hour != 2 || len(snap) == 0 {
		t.Fatalf("worker checkpoint fetch: ok=%v hour=%d bytes=%d", ok, hour, len(snap))
	}

	// Misses map through 404 → fs.ErrNotExist → plain miss, and never
	// trip the worker's breaker.
	for i := 0; i < 10; i++ {
		if _, ok := worker.GetResult("absent"); ok {
			t.Fatal("missing result served")
		}
	}
	if worker.Degraded() {
		t.Fatal("benign 404 misses tripped the worker breaker")
	}
	c := worker.Counters()
	if c.Misses != 10 || c.Faults != 0 {
		t.Errorf("worker counters after misses: %+v", c)
	}

	// The shared store keeps no index: gauges stay zero, GC stays off.
	if worker.Len() != 0 || worker.Bytes() != 0 {
		t.Errorf("shared store grew a local index: len=%d bytes=%d", worker.Len(), worker.Bytes())
	}

	// A dead coordinator is a real fault, not a miss-storm: the worker's
	// breaker opens and the store degrades to compute-only.
	srv.Close()
	for i := 0; i < 20 && !worker.Degraded(); i++ {
		worker.GetResult("w1")
	}
	if !worker.Degraded() {
		t.Error("worker breaker never opened after coordinator death")
	}
}
