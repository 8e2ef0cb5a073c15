package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"airshed/internal/machine"
	"airshed/internal/scenario"
)

// The scheduler's integrity hooks: cost-derived per-job deadlines, the
// stuck-hour watchdog, and the repair entry points the integrity
// scrubber (internal/integrity) uses to regenerate quarantined
// artifacts by recomputation.

// watchdogStackBytes caps the all-goroutine stack dump captured when
// the watchdog trips; watchdogErrStackBytes is how much of it the error
// string itself carries (the full dump stays on WatchdogError.Stack).
const (
	watchdogStackBytes    = 1 << 20
	watchdogErrStackBytes = 2048
)

// WatchdogError is the stuck-hour diagnostic: the watchdog cancelled a
// running job because no hour completed within its bound. It is
// permanent by classification — a wedged run is not an environmental
// hiccup a retry would fix, and the cancellation already tore down the
// attempt.
type WatchdogError struct {
	// JobID is the cancelled job.
	JobID string
	// HoursDone is how many hour events the job had produced.
	HoursDone int
	// Idle is how long the job had made no progress; Bound is the limit
	// it exceeded (WatchdogFactor × the per-hour estimate).
	Idle, Bound time.Duration
	// Stack is the all-goroutine stack dump captured at the trip, for
	// diagnosing where the run wedged.
	Stack []byte
}

func (e *WatchdogError) Error() string {
	stack := e.Stack
	if len(stack) > watchdogErrStackBytes {
		stack = stack[:watchdogErrStackBytes]
	}
	return fmt.Sprintf("sched: watchdog cancelled job %s: no hour completed in %v (bound %v, %d hours done); stacks:\n%s",
		e.JobID, e.Idle.Round(time.Millisecond), e.Bound.Round(time.Millisecond), e.HoursDone, stack)
}

// Transient reports false: the watchdog already decided this job must
// die, and re-running a deterministically wedged run wedges again.
func (e *WatchdogError) Transient() bool { return false }

// rateLocked is the calibrated wall-seconds-per-cost-unit of completed
// executions, falling back to the Go host's nominal flop time before
// any completion; s.mu held.
func (s *Scheduler) rateLocked() float64 {
	if s.doneCost > 0 && s.doneWall > 0 {
		return s.doneWall / s.doneCost
	}
	return machine.GoHost().FlopTime
}

// watchdogBoundLocked derives the stuck-hour bound: WatchdogFactor ×
// the job's per-hour wall estimate, floored at WatchdogFloor. 0 means
// the watchdog is off (disabled, or no usable estimate); s.mu held.
func (s *Scheduler) watchdogBoundLocked(j *job) time.Duration {
	if s.opts.WatchdogFactor <= 0 || j.cost <= 0 {
		return 0
	}
	hours := j.spec.Hours
	if hours < 1 {
		hours = 1
	}
	est := j.cost * s.rateLocked() / float64(hours)
	b := time.Duration(est * s.opts.WatchdogFactor * float64(time.Second))
	if b < s.opts.WatchdogFloor {
		b = s.opts.WatchdogFloor
	}
	return b
}

// watchJob is the per-job stuck-hour watchdog goroutine: it cancels the
// job's context when no hour event lands within bound, leaving the
// stack-dump diagnostic on j.watchdogErr for runJob to surface as the
// job's permanent failure. The timer re-arms from the last progress
// mark, so a steadily advancing run is never interrupted no matter how
// long the whole job takes — that is the deadline's business, not the
// watchdog's.
func (s *Scheduler) watchJob(ctx context.Context, cancel context.CancelFunc, j *job, bound time.Duration, stop <-chan struct{}) {
	t := time.NewTimer(bound)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		s.mu.Lock()
		idle := time.Since(j.lastProgress)
		s.mu.Unlock()
		if idle < bound {
			t.Reset(bound - idle)
			continue
		}
		buf := make([]byte, watchdogStackBytes)
		buf = buf[:runtime.Stack(buf, true)]
		s.mu.Lock()
		j.watchdogErr = &WatchdogError{
			JobID:     j.id,
			HoursDone: len(j.events),
			Idle:      idle,
			Bound:     bound,
			Stack:     buf,
		}
		s.counters.WatchdogCancels++
		s.mu.Unlock()
		cancel()
		return
	}
}

// Recompute force-enqueues a spec for full re-execution, bypassing the
// result cache, the stored-result fast path and every warm start: the
// run simulates cold and re-persists its row, all hour records and
// all checkpoints — the integrity scrubber's repair primitive after an
// artifact is quarantined. Determinism makes the regenerated artifacts
// bit-identical to the lost ones. It is Submit with the held rungs
// bypassed (see admit): an identical in-flight job coalesces as usual
// (best-effort: a coalesced non-repair twin may resolve from intact
// artifacts without rewriting the quarantined one).
func (s *Scheduler) Recompute(spec scenario.Spec) (JobStatus, error) { return s.admit(spec, true) }

// Repair is the integrity scrubber's blocking repair call: decode the
// manifest's spec JSON, force a recompute, and wait for it to finish.
// A nil return means the job completed and the store holds regenerated
// artifacts.
func (s *Scheduler) Repair(ctx context.Context, specJSON []byte) error {
	var spec scenario.Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return fmt.Errorf("sched: repair spec: %w", err)
	}
	st, err := s.Recompute(spec)
	if err != nil {
		return err
	}
	_, err = s.awaitResult(ctx, st.ID)
	return err
}
