package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
)

// miniSpec is the cheap test scenario (~0.4 s of real numerics).
func miniSpec() scenario.Spec {
	return scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 1}
}

// variant returns a mini spec distinguishable by node count.
func variant(nodes int) scenario.Spec {
	s := miniSpec()
	s.Nodes = nodes
	return s
}

func mustSubmit(t *testing.T, s *Scheduler, spec scenario.Spec) JobStatus {
	t.Helper()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%v): %v", spec, err)
	}
	return st
}

func awaitDone(t *testing.T, s *Scheduler, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := s.Await(ctx, id)
	if err != nil {
		t.Fatalf("Await(%s): %v", id, err)
	}
	return st
}

func shutdown(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSubmitRunsAndCaches(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)

	first := mustSubmit(t, s, miniSpec())
	if first.State != Queued && first.State != Running {
		t.Fatalf("fresh submission state = %v", first.State)
	}
	done := awaitDone(t, s, first.ID)
	if done.State != Done || done.Result == nil {
		t.Fatalf("job did not complete: %+v err=%v", done.State, done.Err)
	}
	if done.VirtualSeconds <= 0 || done.WallSeconds <= 0 {
		t.Errorf("timing not recorded: virtual=%g wall=%g", done.VirtualSeconds, done.WallSeconds)
	}

	// Identical resubmission: cache hit, new job ID, same result pointer.
	second := mustSubmit(t, s, miniSpec())
	if !second.Cached || second.State != Done {
		t.Fatalf("resubmission should be a finished cache hit, got cached=%v state=%v", second.Cached, second.State)
	}
	if second.ID == first.ID {
		t.Errorf("cache hit should issue a fresh job ID")
	}
	if second.Result != done.Result {
		t.Errorf("cache hit should share the stored result")
	}
	c := s.Counters()
	if c.CacheHits != 1 || c.CacheMisses != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 hit / 1 miss / 1 completed", c)
	}

	// A semantically identical but differently spelled spec also hits.
	spelled := scenario.Spec{Dataset: "MINI", Machine: "T3E", Nodes: 2, Hours: 1, Mode: "data", NOxScale: 1, VOCScale: 1}
	third := mustSubmit(t, s, spelled)
	if !third.Cached {
		t.Errorf("normalized-identical spec should be a cache hit")
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	if _, err := s.Submit(scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 0, Hours: 1}); err == nil {
		t.Fatal("invalid spec should be rejected at submit")
	}
	if c := s.Counters(); c.Submitted != 0 {
		t.Errorf("rejected-invalid submission should not count, got %+v", c)
	}
}

// TestSingleFlightCoalescing submits the same scenario from many
// goroutines while it is in flight and asserts exactly one execution.
func TestSingleFlightCoalescing(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	// Park a filler job so the target stays queued while we hammer it.
	filler := mustSubmit(t, s, variant(3))

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(miniSpec())
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("concurrent identical submissions got different jobs: %v", ids)
		}
	}
	awaitDone(t, s, filler.ID)
	final := awaitDone(t, s, ids[0])
	if final.State != Done {
		t.Fatalf("coalesced job state = %v err=%v", final.State, final.Err)
	}
	c := s.Counters()
	if c.Coalesced != n-1 {
		t.Errorf("Coalesced = %d, want %d", c.Coalesced, n-1)
	}
	// Two unique scenarios executed in total (filler + target).
	if c.Completed != 2 {
		t.Errorf("Completed = %d, want 2 (single-flight broken?)", c.Completed)
	}
	if c.Submitted != c.CacheHits+c.StoreHits+c.Coalesced+c.CacheMisses+c.Rejected {
		t.Errorf("counter partition violated: %+v", c)
	}
}

func TestQueueFullRejection(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)

	// One job running, one in the queue; the third unique scenario must
	// bounce. Wait for a to leave the queue so b's submission is not
	// itself rejected.
	a := mustSubmit(t, s, variant(2))
	for {
		cur, err := s.Status(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State != Queued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mustSubmit(t, s, variant(3))
	var errFull error
	for nodes := 4; nodes < 8; nodes++ {
		if _, err := s.Submit(variant(nodes)); err != nil {
			errFull = err
			break
		}
	}
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", errFull)
	}
	if c := s.Counters(); c.Rejected == 0 {
		t.Errorf("Rejected not counted: %+v", c)
	}
	// The system keeps serving after rejection.
	if st := awaitDone(t, s, a.ID); st.State != Done {
		t.Errorf("job %s ended %v", a.ID, st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	filler := mustSubmit(t, s, variant(3))
	queued := mustSubmit(t, s, variant(2))
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	st := awaitDone(t, s, queued.ID)
	if st.State != Cancelled {
		t.Fatalf("state = %v, want cancelled", st.State)
	}
	if err := s.Cancel(queued.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("second cancel: want ErrJobFinished, got %v", err)
	}
	awaitDone(t, s, filler.ID)
	// A cancelled-while-queued job never ran and must not be cached:
	// resubmitting executes it.
	again := mustSubmit(t, s, variant(2))
	if again.Cached {
		t.Errorf("cancelled job leaked into the cache")
	}
	if st := awaitDone(t, s, again.ID); st.State != Done {
		t.Errorf("resubmitted job ended %v", st.State)
	}
}

// TestCancelMidRun cancels a job after it has started and asserts the
// driver abandons the run promptly (between time steps).
func TestCancelMidRun(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	// A long scenario: 24 mini hours is ~10 s of numerics.
	long := miniSpec()
	long.Hours = 24
	st := mustSubmit(t, s, long)

	// Wait until it is actually running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := s.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %v", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelAt := time.Now()
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	final := awaitDone(t, s, st.ID)
	if final.State != Cancelled {
		t.Fatalf("state = %v err=%v, want cancelled", final.State, final.Err)
	}
	if !errors.Is(final.Err, context.Canceled) {
		t.Errorf("job error should wrap context.Canceled, got %v", final.Err)
	}
	// "Mid-run" means it died long before the ~10 s the run would take.
	if waited := time.Since(cancelAt); waited > 5*time.Second {
		t.Errorf("cancellation took %v; driver not checking ctx between steps?", waited)
	}
	if c := s.Counters(); c.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", c.Cancelled)
	}
}

func TestJobTimeout(t *testing.T) {
	s := New(Options{Workers: 1, JobTimeout: 50 * time.Millisecond})
	defer shutdown(t, s)
	// 24 hours cannot finish inside the deadline however fast the
	// kernels get (core checks ctx between steps; one mini hour alone
	// takes about as long as the whole timeout).
	long := miniSpec()
	long.Hours = 24
	st := mustSubmit(t, s, long)
	final := awaitDone(t, s, st.ID)
	if final.State != Failed || !errors.Is(final.Err, context.DeadlineExceeded) {
		t.Fatalf("want Failed/DeadlineExceeded, got %v err=%v", final.State, final.Err)
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	s := New(Options{Workers: 1})
	a := mustSubmit(t, s, variant(2))
	b := mustSubmit(t, s, variant(3)) // still queued behind a
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != Done {
			t.Errorf("job %s after drain: %v (err=%v), want done", id, st.State, st.Err)
		}
	}
	if _, err := s.Submit(miniSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	s := New(Options{Workers: 1})
	long := miniSpec()
	long.Hours = 24
	st := mustSubmit(t, s, long)
	// Let it start, then shut down with an immediate deadline.
	for {
		cur, _ := s.Status(st.ID)
		if cur.State == Running {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: want DeadlineExceeded, got %v", err)
	}
	final, err := s.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Cancelled {
		t.Errorf("running job after deadline shutdown: %v, want cancelled", final.State)
	}
}

// TestCacheEvictionOrder fills a 2-entry cache with three scenarios,
// touching the first between inserts, and asserts LRU order: the
// untouched middle entry is the one evicted.
func TestCacheEvictionOrder(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2})
	defer shutdown(t, s)

	run := func(spec scenario.Spec) {
		t.Helper()
		st := mustSubmit(t, s, spec)
		if fin := awaitDone(t, s, st.ID); fin.State != Done {
			t.Fatalf("run %v: %v err=%v", spec, fin.State, fin.Err)
		}
	}
	run(variant(2)) // cache: [2]
	run(variant(3)) // cache: [3 2]
	// Touch 2 so 3 becomes least recently used.
	if st := mustSubmit(t, s, variant(2)); !st.Cached {
		t.Fatalf("variant(2) should be cached")
	}
	run(variant(4)) // cache: [4 2], evicts 3

	if st := mustSubmit(t, s, variant(2)); !st.Cached {
		t.Errorf("recently used entry was evicted")
	}
	if st := mustSubmit(t, s, variant(4)); !st.Cached {
		t.Errorf("newest entry missing")
	}
	st := mustSubmit(t, s, variant(3))
	if st.Cached {
		t.Errorf("LRU entry should have been evicted")
	}
	awaitDone(t, s, st.ID)
	c := s.Counters()
	if c.Evictions == 0 {
		t.Errorf("eviction not counted: %+v", c)
	}
	if c.CacheEntries > 2 {
		t.Errorf("cache over capacity: %d entries", c.CacheEntries)
	}
}

// TestCacheByteCap forces byte-based eviction with a tiny byte budget.
func TestCacheByteCap(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 100, CacheBytes: 1})
	defer shutdown(t, s)
	for nodes := 2; nodes <= 4; nodes++ {
		st := mustSubmit(t, s, variant(nodes))
		awaitDone(t, s, st.ID)
	}
	c := s.Counters()
	// Every result exceeds 1 byte, so at most one entry survives.
	if c.CacheEntries > 1 {
		t.Errorf("byte cap not enforced: %d entries, %d bytes", c.CacheEntries, c.CacheBytes)
	}
	if c.Evictions < 2 {
		t.Errorf("expected >=2 evictions, got %d", c.Evictions)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: -1})
	defer shutdown(t, s)
	a := mustSubmit(t, s, miniSpec())
	awaitDone(t, s, a.ID)
	b := mustSubmit(t, s, miniSpec())
	if b.Cached {
		t.Fatalf("cache disabled but submission hit")
	}
	if fin := awaitDone(t, s, b.ID); fin.State != Done {
		t.Fatalf("second run: %v", fin.State)
	}
	if c := s.Counters(); c.CacheHits != 0 || c.Completed != 2 {
		t.Errorf("counters with disabled cache: %+v", c)
	}
}

// TestDeterminismAcrossRuns is the cache-correctness regression guard:
// the same scenario executed twice — by a cache-bypassing scheduler, so
// both are real executions — must produce byte-identical final
// concentration fields and equal ozone peaks. If this ever breaks, the
// result cache would serve answers that a fresh run would not produce.
func TestDeterminismAcrossRuns(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: -1})
	defer shutdown(t, s)
	spec := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 3, Hours: 2, NOxScale: 0.8}

	results := make([]*core.Result, 2)
	for i := range results {
		st := mustSubmit(t, s, spec)
		fin := awaitDone(t, s, st.ID)
		if fin.State != Done {
			t.Fatalf("run %d: %v err=%v", i, fin.State, fin.Err)
		}
		results[i] = fin.Result
	}
	a, b := results[0], results[1]
	if a == b {
		t.Fatal("cache-bypassing scheduler returned the same result object twice")
	}
	if len(a.Final) != len(b.Final) {
		t.Fatalf("final field lengths differ: %d vs %d", len(a.Final), len(b.Final))
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] { // exact: byte-identical float64s
			t.Fatalf("Final[%d] differs: %x vs %x", i, a.Final[i], b.Final[i])
		}
	}
	if a.PeakO3 != b.PeakO3 || a.PeakO3Cell != b.PeakO3Cell {
		t.Errorf("peak O3 differs: %g@%d vs %g@%d", a.PeakO3, a.PeakO3Cell, b.PeakO3, b.PeakO3Cell)
	}
	if a.Ledger.Total != b.Ledger.Total {
		t.Errorf("virtual time differs: %g vs %g", a.Ledger.Total, b.Ledger.Total)
	}
}

// BenchmarkServeScenario measures serving-path throughput on the mini
// dataset: uncached (every iteration executes the numerics) vs cached
// (every iteration after the first is a hash lookup). The ratio is the
// speedup the result cache buys identical-scenario traffic.
func BenchmarkServeScenario(b *testing.B) {
	bench := func(b *testing.B, opts Options) {
		s := New(opts)
		defer s.Shutdown(context.Background())
		spec := miniSpec()
		if opts.CacheEntries >= 0 {
			// Warm the cache so every timed iteration is the hit path.
			st, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Await(context.Background(), st.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			fin, err := s.Await(context.Background(), st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if fin.State != Done {
				b.Fatalf("state %v err=%v", fin.State, fin.Err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		bench(b, Options{Workers: 1, CacheEntries: -1})
	})
	b.Run("cached", func(b *testing.B) {
		bench(b, Options{Workers: 1})
	})
}

// TestCancelDuringRetryBackoff parks a job in its retry backoff sleep
// (every execution attempt fails with an injected transient error and
// the base delay is far longer than the test) and cancels it there: the
// cancel must cut the sleep short and land the job in Cancelled without
// waiting out the backoff.
func TestCancelDuringRetryBackoff(t *testing.T) {
	inj := resilience.New(11).Set(resilience.PointSchedExec, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	s := New(Options{Workers: 1, Retry: resilience.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Hour, // the test only passes if cancel interrupts this
	}})
	defer shutdown(t, s)

	st := mustSubmit(t, s, miniSpec())

	// Wait for the first failed attempt, i.e. the job is now sleeping.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := s.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Attempts >= 1 && cur.LastErr != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never recorded its first failed attempt")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel during backoff: %v", err)
	}
	final := awaitDone(t, s, st.ID)
	if final.State != Cancelled {
		t.Fatalf("state = %v, want cancelled", final.State)
	}
	if !errors.Is(final.Err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled, got %v", final.Err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancel took %v — it waited out the backoff instead of interrupting it", waited)
	}
	if final.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (cancelled before the retry ran)", final.Attempts)
	}
	if final.LastErr == nil || !resilience.IsTransient(final.LastErr) {
		t.Errorf("the transient failure that queued the retry was not surfaced: %v", final.LastErr)
	}
	if c := s.Counters(); c.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", c.Cancelled)
	}
}

// A status poll during a retry backoff must already see the failed
// attempt: Attempts counts the attempt that failed, Retries counts the
// retry now queued, and LastErr is the transient failure being slept on.
// After recovery the job keeps the last failure it retried over.
func TestRetryStateVisibleDuringBackoff(t *testing.T) {
	inj := resilience.New(11).SetLimited(resilience.PointSchedExec, 1, 2)
	resilience.Enable(inj)
	defer resilience.Disable()

	s := New(Options{Workers: 1, Retry: resilience.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Hour, // the first backoff never ends on its own
	}})
	defer shutdown(t, s)
	st := mustSubmit(t, s, miniSpec())

	var cur JobStatus
	for deadline := time.Now().Add(10 * time.Second); cur.LastErr == nil; time.Sleep(time.Millisecond) {
		var err error
		if cur, err = s.Status(st.ID); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never recorded its first failed attempt")
		}
	}
	var ie *resilience.InjectedError
	if !errors.As(cur.LastErr, &ie) || ie.Point != resilience.PointSchedExec || ie.Call != 1 {
		t.Errorf("LastErr in backoff = %v, want the injected sched.exec fault of call 1", cur.LastErr)
	}
	if cur.State != Running || cur.Attempts != 1 {
		t.Errorf("in backoff: state %v attempts %d, want running with 1 attempt", cur.State, cur.Attempts)
	}
	if c := s.Counters(); c.Retries != 1 {
		t.Errorf("Retries in backoff = %d, want 1", c.Retries)
	}
	if err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s, st.ID)

	// The injector has one fault left: a fresh scheduler with a short
	// backoff retries over it and finishes.
	s2 := New(Options{Workers: 1, Retry: resilience.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}})
	defer shutdown(t, s2)
	final := awaitDone(t, s2, mustSubmit(t, s2, miniSpec()).ID)
	if final.State != Done || final.Attempts != 2 {
		t.Fatalf("recovered job: state %v attempts %d (%v), want done after 2", final.State, final.Attempts, final.Err)
	}
	if !errors.As(final.LastErr, &ie) || ie.Call != 2 {
		t.Errorf("LastErr after recovery = %v, want the fault of call 2 it retried over", final.LastErr)
	}
	if c := s2.Counters(); c.Retries != 1 {
		t.Errorf("Retries after recovery = %d, want 1", c.Retries)
	}
}
