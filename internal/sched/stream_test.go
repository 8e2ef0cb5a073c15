package sched

import (
	"errors"
	"testing"
	"time"

	"airshed/internal/store"
)

// watchAll consumes a job's whole event stream the way the SSE handler
// does: emit, check terminal, wait on the change channel, repeat.
func watchAll(t *testing.T, s *Scheduler, id string) ([]HourEvent, JobStatus) {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	var events []HourEvent
	for {
		tail, st, changed, err := s.Watch(id, len(events))
		if err != nil {
			t.Fatalf("Watch(%s): %v", id, err)
		}
		events = append(events, tail...)
		if st.State.Terminal() {
			// Drain anything appended between the last wait and the
			// terminal transition.
			tail, st, _, _ := s.Watch(id, len(events))
			return append(events, tail...), st
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("Watch(%s): stream did not finish", id)
		}
	}
}

// TestWatchStreamsHoursLive submits a pipelined multi-hour run and
// consumes its event stream while it executes: one event per simulated
// hour, in hour order, all before the terminal status is observed.
func TestWatchStreamsHoursLive(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	spec := miniSpec()
	spec.Hours = 3
	job := mustSubmit(t, s, spec)
	events, final := watchAll(t, s, job.ID)

	if final.State != Done {
		t.Fatalf("job finished %v (%v)", final.State, final.Err)
	}
	if len(events) != spec.Hours {
		t.Fatalf("streamed %d events, want %d", len(events), spec.Hours)
	}
	for i, ev := range events {
		if ev.Hour != i {
			t.Errorf("event %d is hour %d, want %d", i, ev.Hour, i)
		}
		if ev.Stored {
			t.Errorf("event %d marked stored on a cold run", i)
		}
		if ev.Steps <= 0 || ev.PeakO3 <= 0 {
			t.Errorf("event %d carries empty physics: %+v", i, ev)
		}
		if ev.PeakO3 != final.Result.HourlyPeakO3[i] {
			t.Errorf("event %d peak %g, result says %g", i, ev.PeakO3, final.Result.HourlyPeakO3[i])
		}
	}
}

// TestWatchSynthesizesForHits pins the finished-job contract: a cache or
// store hit has no live stream, so Watch synthesizes the per-hour events
// from the result, marked Stored, with an already-closed change channel.
func TestWatchSynthesizesForHits(t *testing.T) {
	spec := miniSpec()
	spec.Hours = 2
	dir := t.TempDir()
	runOne(t, openStore(t, dir), spec)

	for _, row := range []struct {
		name      string
		fromStore bool
	}{
		{"cache hit", false},
		{"store hit", true}, // a fresh scheduler over the store the run filled
	} {
		opts := Options{Workers: 1}
		if row.fromStore {
			opts.Store = openStore(t, dir)
		}
		s := New(opts)
		if !row.fromStore {
			awaitDone(t, s, mustSubmit(t, s, spec).ID)
		}

		hit := mustSubmit(t, s, spec)
		if !hit.Cached || hit.FromStore != row.fromStore {
			t.Fatalf("%s: submission resolved as %+v", row.name, hit)
		}
		events, st, changed, err := s.Watch(hit.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Fatalf("%s: job not terminal: %v", row.name, st.State)
		}
		select {
		case <-changed:
		default:
			t.Errorf("%s: change channel should be closed", row.name)
		}
		if len(events) != spec.Hours {
			t.Fatalf("%s: synthesized %d events, want %d", row.name, len(events), spec.Hours)
		}
		for i, ev := range events {
			if !ev.Stored {
				t.Errorf("%s: synthesized event %d not marked stored", row.name, i)
			}
			if ev.Hour != i || ev.Steps <= 0 {
				t.Errorf("%s: synthesized event %d malformed: %+v", row.name, i, ev)
			}
		}
		shutdown(t, s)
	}
}

// TestWatchWarmStartStreamsStoredPrefix runs a short scenario, then a
// longer one sharing its physics prefix against the same store: the
// warm-started job must stream the stored prefix hours (Stored) before
// the live simulated suffix hours.
func TestWatchWarmStartStreamsStoredPrefix(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)

	short := miniSpec()
	short.Hours = 2
	awaitDone(t, s, mustSubmit(t, s, short).ID)

	long := miniSpec()
	long.Hours = 4
	job := mustSubmit(t, s, long)
	events, final := watchAll(t, s, job.ID)
	if final.State != Done {
		t.Fatalf("warm job finished %v (%v)", final.State, final.Err)
	}
	if final.WarmStartHour != short.Hours {
		t.Fatalf("warm start hour = %d, want %d", final.WarmStartHour, short.Hours)
	}
	if len(events) != long.Hours {
		t.Fatalf("streamed %d events, want %d", len(events), long.Hours)
	}
	for i, ev := range events {
		if ev.Hour != i {
			t.Errorf("event %d is hour %d, want %d", i, ev.Hour, i)
		}
		wantStored := i < short.Hours
		if ev.Stored != wantStored {
			t.Errorf("event %d stored=%v, want %v (warm prefix is [0,%d))", i, ev.Stored, wantStored, short.Hours)
		}
	}
}

// TestEstimatedWaitAndQueueFull pins the admission contract: a loaded
// queue reports a positive perfmodel-derived wait estimate, and a full
// queue rejects with ErrQueueFull (the daemon's 429 + Retry-After).
func TestEstimatedWaitAndQueueFull(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)

	if w := s.EstimatedWait(); w != 0 {
		t.Errorf("idle scheduler estimates wait %v, want 0", w)
	}

	// Occupy the worker and the single queue slot with distinct specs
	// (identical ones would coalesce, not queue). Wait for the worker to
	// dequeue the first so the second lands in the queue slot, not in a
	// race for it.
	running := mustSubmit(t, s, variant(1))
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := s.Status(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != Queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := mustSubmit(t, s, variant(2))

	if w := s.EstimatedWait(); w <= 0 {
		t.Errorf("loaded scheduler estimates wait %v, want > 0", w)
	}
	if c := s.Counters(); c.EstimatedWaitSeconds <= 0 {
		t.Errorf("Counters.EstimatedWaitSeconds = %v, want > 0", c.EstimatedWaitSeconds)
	}

	// Third distinct spec: the queue is full.
	if _, err := s.Submit(variant(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overloaded Submit error = %v, want ErrQueueFull", err)
	}
	if c := s.Counters(); c.Rejected != 1 {
		t.Errorf("Rejected counter = %d, want 1", c.Rejected)
	}

	awaitDone(t, s, running.ID)
	awaitDone(t, s, queued.ID)
	if w := s.EstimatedWait(); w != 0 {
		t.Errorf("drained scheduler estimates wait %v, want 0", w)
	}
}

// TestEstimatedWaitCalibrates checks the estimate switches from the
// a-priori flop-time guess to the observed execution rate once a run
// completes: with history, a queued twin of the completed spec should
// be estimated near its actual wall time.
func TestEstimatedWaitCalibrates(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	first := mustSubmit(t, s, variant(1))
	final := awaitDone(t, s, first.ID)
	if final.State != Done {
		t.Fatalf("run failed: %v", final.Err)
	}

	s.mu.Lock()
	doneCost, doneWall := s.doneCost, s.doneWall
	s.mu.Unlock()
	if doneCost <= 0 || doneWall <= 0 {
		t.Fatalf("completion did not calibrate: cost=%g wall=%g", doneCost, doneWall)
	}
	// A hypothetical queued twin would now be priced at the observed
	// rate: cost * wall/cost / workers = its measured wall time.
	est := time.Duration(doneWall / doneCost * estimateCost(variant(1).Normalize()) * float64(time.Second))
	if est <= 0 {
		t.Errorf("calibrated estimate %v, want > 0", est)
	}
}
