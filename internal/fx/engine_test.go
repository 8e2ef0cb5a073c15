package fx

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"airshed/internal/resilience"
)

// TestEngineCoversItemSpace checks that Run visits every item exactly
// once in contiguous spans, for item counts around the chunking
// boundaries.
func TestEngineCoversItemSpace(t *testing.T) {
	e := NewEngine(3)
	defer e.Close()
	for _, n := range []int{0, 1, 2, 3, 11, 12, 13, 100, 1000} {
		visits := make([]int32, n)
		err := e.Run(n, func(worker, lo, hi int) error {
			if lo > hi || lo < 0 || hi > n {
				return fmt.Errorf("bad span [%d,%d) for n=%d", lo, hi, n)
			}
			if worker < 0 || worker >= e.Workers() {
				return fmt.Errorf("bad worker index %d", worker)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: item %d visited %d times", n, i, v)
			}
		}
	}
}

// TestEngineDeterministicError checks that the reported error is the
// first in chunk-index order regardless of execution interleaving.
func TestEngineDeterministicError(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	errA := errors.New("a")
	errB := errors.New("b")
	for trial := 0; trial < 50; trial++ {
		err := e.Run(100, func(worker, lo, hi int) error {
			// Chunks containing items 30 and 70 both fail; item 30's
			// chunk has the lower chunk index so its error must win.
			if lo <= 30 && 30 < hi {
				return errA
			}
			if lo <= 70 && 70 < hi {
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: got %v, want wrapped %v", trial, err, errA)
		}
	}
}

// TestEngineWorkerIndexExclusive checks that a given worker index is
// never live in two chunk bodies at once — the property per-worker
// scratch pools rely on.
func TestEngineWorkerIndexExclusive(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	busy := make([]atomic.Bool, e.Workers())
	err := e.Run(512, func(worker, lo, hi int) error {
		if !busy[worker].CompareAndSwap(false, true) {
			return fmt.Errorf("worker %d entered concurrently", worker)
		}
		defer busy[worker].Store(false)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i)
		}
		_ = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentRuns issues Run calls from many goroutines against
// one engine, as concurrent daemon jobs sharing SharedEngine do.
func TestEngineConcurrentRuns(t *testing.T) {
	e := NewEngine(runtime.GOMAXPROCS(0))
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var sum atomic.Int64
				if err := e.Run(64, func(worker, lo, hi int) error {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if got := sum.Load(); got != 64*63/2 {
					t.Errorf("goroutine %d: sum %d, want %d", g, got, 64*63/2)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineStats checks the counters advance and the gauges drain back
// to zero once the pool is idle.
func TestEngineStats(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	if err := e.Run(10, func(worker, lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Workers != 2 {
		t.Errorf("Workers = %d, want 2", st.Workers)
	}
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want 1", st.Runs)
	}
	if st.Chunks < 1 {
		t.Errorf("Chunks = %d, want >= 1", st.Chunks)
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Errorf("idle engine has Active=%d Queued=%d, want 0/0", st.Active, st.Queued)
	}
}

// TestSharedEngine checks the process-wide engine is a singleton sized
// to the host.
func TestSharedEngine(t *testing.T) {
	a, b := SharedEngine(), SharedEngine()
	if a != b {
		t.Fatal("SharedEngine returned distinct engines")
	}
	if a.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("shared engine workers = %d, want GOMAXPROCS %d",
			a.Workers(), runtime.GOMAXPROCS(0))
	}
}

// TestEnginePanicContained panics inside a chunk body and asserts the
// containment contract: Run returns a PanicError carrying the stack,
// the panic gauge moves, and the pool keeps executing afterwards.
func TestEnginePanicContained(t *testing.T) {
	e := NewEngine(3)
	defer e.Close()

	err := e.Run(64, func(w, lo, hi int) error {
		if lo == 0 {
			panic("kernel exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking chunk returned nil")
	}
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry the PanicError", err)
	}
	if pe.Value != "kernel exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("contained panic lost its stack")
	}
	if got := e.Stats().Panics; got != 1 {
		t.Errorf("panic gauge = %d, want 1", got)
	}

	// Every worker survived: a full run still covers the item space.
	var visited atomic.Int64
	if err := e.Run(100, func(w, lo, hi int) error {
		visited.Add(int64(hi - lo))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if visited.Load() != 100 {
		t.Errorf("post-panic run covered %d of 100 items", visited.Load())
	}
}
