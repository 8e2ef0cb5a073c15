package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/resilience"
)

// TestSentinelTripPermanent injects a sentinel poison into every hour
// and asserts the job fails immediately with the typed physics
// diagnostic: one attempt, zero retries consumed, sentinel counter up.
func TestSentinelTripPermanent(t *testing.T) {
	inj := resilience.New(23).Set(resilience.PointCoreSentinel, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	s := New(Options{
		Workers: 1,
		// A generous retry budget: the permanent classification, not a
		// small budget, must be what keeps Attempts at 1.
		Retry: resilience.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour, Jitter: 0},
	})
	defer shutdown(t, s)

	st := mustSubmit(t, s, miniSpec())
	final := awaitDone(t, s, st.ID)
	if final.State != Failed {
		t.Fatalf("state = %v, want Failed (err %v)", final.State, final.Err)
	}
	var pe *core.PhysicsError
	if !errors.As(final.Err, &pe) {
		t.Fatalf("err = %v, want *core.PhysicsError", final.Err)
	}
	if pe.Hour != 0 || pe.Kind == "" {
		t.Errorf("diagnostic hour=%d kind=%q, want hour 0 and a kind", pe.Hour, pe.Kind)
	}
	if resilience.IsTransient(final.Err) {
		t.Error("sentinel trip classified transient")
	}
	if final.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (no retries on deterministic garbage)", final.Attempts)
	}
	c := s.Counters()
	if c.Retries != 0 {
		t.Errorf("Retries = %d, want 0", c.Retries)
	}
	if c.SentinelTrips != 1 {
		t.Errorf("SentinelTrips = %d, want 1", c.SentinelTrips)
	}
	if c.Failed != 1 {
		t.Errorf("Failed = %d, want 1", c.Failed)
	}
}

// TestWatchdogCancelsWedgedHour wedges the first hour forever and
// asserts the stuck-hour watchdog cancels the job with the typed
// stack-dump diagnostic rather than letting it hang.
func TestWatchdogCancelsWedgedHour(t *testing.T) {
	inj := resilience.New(5).Set(resilience.PointCoreWedge, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	s := New(Options{
		Workers:        1,
		WatchdogFactor: 4,
		WatchdogFloor:  300 * time.Millisecond,
	})
	defer shutdown(t, s)

	st := mustSubmit(t, s, miniSpec())
	final := awaitDone(t, s, st.ID)
	if final.State != Failed {
		t.Fatalf("state = %v, want Failed (err %v)", final.State, final.Err)
	}
	var we *WatchdogError
	if !errors.As(final.Err, &we) {
		t.Fatalf("err = %v, want *WatchdogError", final.Err)
	}
	if we.JobID != st.ID {
		t.Errorf("WatchdogError.JobID = %q, want %q", we.JobID, st.ID)
	}
	if len(we.Stack) == 0 {
		t.Error("watchdog diagnostic carries no goroutine stack dump")
	}
	if !strings.Contains(final.Err.Error(), "watchdog") {
		t.Errorf("diagnostic %q does not mention the watchdog", final.Err.Error())
	}
	if resilience.IsTransient(final.Err) {
		t.Error("watchdog cancellation classified transient")
	}
	c := s.Counters()
	if c.WatchdogCancels != 1 {
		t.Errorf("WatchdogCancels = %d, want 1", c.WatchdogCancels)
	}
}

// TestMaxRunDeadline wedges the run under the absolute per-job cap (no
// watchdog): the cap alone must unstick it.
func TestMaxRunDeadline(t *testing.T) {
	inj := resilience.New(5).Set(resilience.PointCoreWedge, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	s := New(Options{Workers: 1, JobTimeout: 300 * time.Millisecond})
	defer shutdown(t, s)

	st := mustSubmit(t, s, miniSpec())
	final := awaitDone(t, s, st.ID)
	if final.State != Failed {
		t.Fatalf("state = %v, want Failed (err %v)", final.State, final.Err)
	}
	if !errors.Is(final.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", final.Err)
	}
}

// TestRecomputeBypassesCaches forces a recompute of a cached spec and
// asserts it re-runs the numerics (repair path) instead of serving the
// memory cache or store, and that the Repairs counter moves.
func TestRecomputeBypassesCaches(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)

	first := mustSubmit(t, s, miniSpec())
	base := awaitDone(t, s, first.ID)
	if base.State != Done {
		t.Fatalf("baseline state = %v", base.State)
	}

	re, err := s.Recompute(miniSpec())
	if err != nil {
		t.Fatalf("Recompute: %v", err)
	}
	if re.ID == first.ID {
		t.Fatal("Recompute coalesced with a finished job instead of forcing a new one")
	}
	fin := awaitDone(t, s, re.ID)
	if fin.State != Done {
		t.Fatalf("repair state = %v (err %v)", fin.State, fin.Err)
	}
	if fin.Cached || fin.FromStore {
		t.Errorf("repair served from cache/store (cached=%v fromStore=%v); must recompute", fin.Cached, fin.FromStore)
	}
	if fin.Result == nil || base.Result == nil {
		t.Fatal("missing results")
	}
	if fin.Result.PeakO3 != base.Result.PeakO3 {
		t.Errorf("recompute PeakO3 %g != baseline %g (determinism)", fin.Result.PeakO3, base.Result.PeakO3)
	}
	if c := s.Counters(); c.Repairs != 1 {
		t.Errorf("Repairs = %d, want 1", c.Repairs)
	}
}
