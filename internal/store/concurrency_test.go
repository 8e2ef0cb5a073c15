package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// concPayload is a small gob-encodable artifact for concurrency tests —
// real results are too expensive to produce thousands of times.
type concPayload struct {
	N    int
	Data []byte
}

// TestStoreConcurrentAccessUnderGC hammers one store with parallel
// writers, readers and temp sweeps while a tiny byte budget keeps GC
// churning on every write. Run under -race this is the store's
// concurrency-safety proof; the assertions check that the counters and
// the index stay exactly consistent through the churn.
func TestStoreConcurrentAccessUnderGC(t *testing.T) {
	s, err := Open(t.TempDir(), 8<<10) // ~8 entries fit; constant GC
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 40
	var gets atomic.Uint64

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := make([]byte, 1<<10)
			for i := range data {
				data[i] = byte(g + i)
			}
			for i := 0; i < iters; i++ {
				own := fmt.Sprintf("h%02d-%02d", g, i)
				if err := s.putEnveloped(kindResult, own, ".res", &concPayload{N: i, Data: data}); err != nil {
					t.Errorf("put %s: %v", own, err)
					return
				}
				// Read back own key and a neighbour's: both may have been
				// evicted by concurrent GC — that's a legitimate miss, never
				// an error or a fault.
				var got concPayload
				gets.Add(1)
				if s.getEnveloped(kindResult, own, ".res", &got) && got.N != i {
					t.Errorf("read %s: got N=%d, want %d", own, got.N, i)
				}
				other := fmt.Sprintf("h%02d-%02d", (g+1)%goroutines, i)
				gets.Add(1)
				s.getEnveloped(kindResult, other, ".res", &got)
				if i%10 == 0 {
					sweepTemps(s)
				}
			}
		}(g)
	}
	wg.Wait()

	c := s.Counters()
	if c.Hits+c.Misses != gets.Load() {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d lookups", c.Hits, c.Misses, c.Hits+c.Misses, gets.Load())
	}
	if c.Faults != 0 || c.Corrupt != 0 || c.DegradedOps != 0 {
		t.Errorf("healthy churn booked faults=%d corrupt=%d degraded=%d", c.Faults, c.Corrupt, c.DegradedOps)
	}
	if c.Evictions == 0 {
		t.Error("GC never ran despite the byte budget being a fraction of the write volume")
	}
	if c.Bytes > 8<<10 {
		t.Errorf("store over budget after final GC pass: %d bytes", c.Bytes)
	}

	// The index and the backend must agree exactly once the dust settles:
	// same keys, same sizes, and the byte gauge is their sum.
	infos, err := s.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make(map[string]int64, len(infos))
	var diskBytes int64
	for _, info := range infos {
		onDisk[info.Key] = info.Size
		diskBytes += info.Size
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != len(onDisk) {
		t.Errorf("index has %d entries, backend has %d", len(s.entries), len(onDisk))
	}
	var indexBytes int64
	for rel, e := range s.entries {
		if size, ok := onDisk[rel]; !ok {
			t.Errorf("indexed entry %s missing from backend", rel)
		} else if size != e.size {
			t.Errorf("entry %s: index size %d, backend size %d", rel, e.size, size)
		}
		indexBytes += e.size
	}
	if s.bytes != indexBytes || s.bytes != diskBytes {
		t.Errorf("byte gauge %d, index sum %d, backend sum %d", s.bytes, indexBytes, diskBytes)
	}
}

// TestGCNeverEvictsInFlightWrite pins the GC keep contract: even with a
// budget smaller than a single artifact, the entry a write just produced
// survives its own GC pass — serving one oversized artifact beats
// serving none — and is only displaced by the NEXT write.
func TestGCNeverEvictsInFlightWrite(t *testing.T) {
	s, err := Open(t.TempDir(), 1) // every artifact is over budget
	if err != nil {
		t.Fatal(err)
	}
	if err := s.putEnveloped(kindResult, "aaaa", ".res", &concPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	var got concPayload
	if !s.getEnveloped(kindResult, "aaaa", ".res", &got) || got.N != 1 {
		t.Fatal("just-written artifact was evicted by its own GC pass")
	}

	if err := s.putEnveloped(kindResult, "bbbb", ".res", &concPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if !s.getEnveloped(kindResult, "bbbb", ".res", &got) || got.N != 2 {
		t.Fatal("second artifact not readable after its write")
	}
	if s.getEnveloped(kindResult, "aaaa", ".res", &got) {
		t.Error("first artifact survived a later over-budget write")
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Errorf("no evictions booked: %+v", c)
	}
}
