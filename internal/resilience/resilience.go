// Package resilience makes failure a first-class, testable input to the
// Airshed service. It provides the four mechanisms the scenario service
// uses to survive flaky hardware — the property the source paper's
// production deployments depended on and that "Towards Parallel
// Computing on the Internet" identifies as gating for long-running
// parallel applications:
//
//   - a deterministic, seed-driven fault-injection registry (Injector):
//     named injection points threaded through store I/O, hourio
//     serialisation, scheduler job execution and engine chunk execution
//     fire errors (or one armed panic) at a configured rate, decided
//     purely by (seed, point, call index) so every chaos run is
//     reproducible. Disabled, a point costs one atomic load;
//   - error classification (transient vs permanent) and a capped
//     exponential backoff policy with deterministic jitter (RetryPolicy,
//     Retry) for job retries;
//   - a circuit breaker (Breaker) that converts N consecutive I/O
//     failures into a degraded compute-only mode with periodic probe
//     re-enable;
//   - panic containment (PanicError, NewPanicError) and a small
//     crash-recovery write-ahead journal (Journal) so a SIGKILL loses
//     in-flight compute but no accepted work.
//
// The testing rule the chaos suite enforces: faults are deterministic
// inputs, and any run that completes under injected faults must produce
// results bit-identical to the fault-free baseline — injection may only
// fail or delay work, never corrupt it.
package resilience

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Canonical injection point names. Each names the operation the fault
// pretends to fail, at the call site that would surface a real failure
// of that operation.
const (
	// PointStoreRead fires inside artifact-store read verification
	// (result/record/checkpoint reads): an injected fault is an I/O
	// error, reported as a miss and counted against the breaker.
	PointStoreRead = "store.read"
	// PointStoreWrite fires at the head of the store's atomic write.
	PointStoreWrite = "store.write"
	// PointHourRead fires at the head of hourio deserialisation
	// (hour inputs and snapshots — including checkpoint reads).
	PointHourRead = "hourio.read"
	// PointHourWrite fires at the head of hourio serialisation.
	PointHourWrite = "hourio.write"
	// PointSchedExec fires at the head of scheduler job execution (the
	// whole-job failure domain: a worker losing its run).
	PointSchedExec = "sched.exec"
	// PointFxChunk fires per host-engine chunk (the sub-job failure
	// domain: one core's span of a phase).
	PointFxChunk = "fx.chunk"
	// PointPipePrefetch fires at the head of the hour loop's input
	// stage (once per hour): a fault is the input decode losing an hour
	// file mid-read.
	PointPipePrefetch = "pipe.prefetch"
	// PointPipeWrite fires at the head of the hour loop's output stage
	// (once per written hour): a fault is the output stage losing a
	// snapshot write.
	PointPipeWrite = "pipe.write"
	// PointFleetDispatch fires per coordinator->worker shard dispatch
	// attempt: a fault is the dispatch POST lost on the wire.
	PointFleetDispatch = "fleet.dispatch"
	// PointFleetBlobGet fires per HTTP blob-backend read attempt (a
	// fleet worker fetching an artifact from the coordinator's store).
	PointFleetBlobGet = "fleet.blob.get"
	// PointFleetBlobPut fires per HTTP blob-backend write attempt.
	PointFleetBlobPut = "fleet.blob.put"
	// PointFleetHeartbeat fires per agent heartbeat: a fault is the
	// heartbeat dropped before it reaches the coordinator.
	PointFleetHeartbeat = "fleet.heartbeat"
	// PointStoreScrub fires per artifact the integrity scrubber visits:
	// a fault is a read error during verification — the artifact is
	// skipped this pass (injection may fail work, never corrupt it, so a
	// fired scrub fault must NOT quarantine a healthy blob).
	PointStoreScrub = "store.scrub"
	// PointCoreSentinel fires once per simulated hour just before the
	// physics sentinel scan: a fault poisons the replica (NaN, negative,
	// or mass drift by call index) so the sentinel path is testable
	// without breaking the real kernels.
	PointCoreSentinel = "core.sentinel"
	// PointCoreWedge fires at the head of each simulated hour: a fault
	// black-holes the hour (blocks until the run context is cancelled),
	// the failure shape the scheduler's stuck-hour watchdog exists for.
	PointCoreWedge = "core.wedge"
)

// Points lists the canonical injection points.
func Points() []string {
	return []string{PointStoreRead, PointStoreWrite, PointHourRead, PointHourWrite, PointSchedExec, PointFxChunk, PointPipePrefetch, PointPipeWrite, PointFleetDispatch, PointFleetBlobGet, PointFleetBlobPut, PointFleetHeartbeat, PointStoreScrub, PointCoreSentinel, PointCoreWedge}
}

// InjectedError is the error an injection point fires. It is transient
// by construction: injected faults model recoverable I/O and execution
// failures, so the retry machinery must engage on them.
type InjectedError struct {
	// Point is the injection point that fired.
	Point string
	// Call is the 1-based call index at that point.
	Call uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("resilience: injected fault at %s (call %d)", e.Point, e.Call)
}

// Transient marks injected faults retryable (see IsTransient).
func (e *InjectedError) Transient() bool { return true }

// InjectedPanic is the value an armed injection point panics with; the
// containment layers convert it into a *PanicError like any other panic.
type InjectedPanic struct {
	// Point is the injection point that fired.
	Point string
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("resilience: injected panic at %s", p.Point)
}

// point is one injection point's configuration and counters.
type point struct {
	rate  float64 // fault probability per call
	limit uint64  // max fires (0 = unlimited)

	panicArmed atomic.Bool // next call panics, once

	calls atomic.Uint64
	fired atomic.Uint64
}

// Injector is a deterministic fault-injection registry: each call to a
// configured point fires based only on the injector seed, the point name
// and the call index at that point, so a chaos run replays exactly under
// a fixed seed (modulo which goroutine reaches the nth call first —
// which may reorder faults across concurrent jobs but never changes any
// completed result; see the package invariant).
//
// Configure all points before Enable; Fire is safe for concurrent use.
type Injector struct {
	seed uint64

	mu     sync.RWMutex
	points map[string]*point
}

// New creates an injector with the given seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, points: make(map[string]*point)}
}

// Set configures a point to fire errors at the given per-call
// probability (0 disables, 1 fires every call). Returns the injector for
// chaining.
func (in *Injector) Set(name string, rate float64) *Injector {
	return in.SetLimited(name, rate, 0)
}

// SetLimited is Set with a cap on the total number of fires (0 =
// unlimited): "fail the first limit matching calls, then recover" —
// the shape of a transient outage.
func (in *Injector) SetLimited(name string, rate float64, limit uint64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[name]
	if p == nil {
		p = &point{}
		in.points[name] = p
	}
	p.rate = rate
	p.limit = limit
	return in
}

// ArmPanic makes the next call to the point panic (once) with an
// InjectedPanic value — the forced-worker-panic input of the chaos
// acceptance criterion.
func (in *Injector) ArmPanic(name string) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[name]
	if p == nil {
		p = &point{}
		in.points[name] = p
	}
	p.panicArmed.Store(true)
	return in
}

// Calls returns how many times the point has been reached.
func (in *Injector) Calls(name string) uint64 {
	in.mu.RLock()
	p := in.points[name]
	in.mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.calls.Load()
}

// Fired returns how many faults the point has fired (errors and panics).
func (in *Injector) Fired(name string) uint64 {
	in.mu.RLock()
	p := in.points[name]
	in.mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.fired.Load()
}

// fire implements the point decision for this injector.
func (in *Injector) fire(name string) error {
	in.mu.RLock()
	p := in.points[name]
	in.mu.RUnlock()
	if p == nil {
		return nil
	}
	n := p.calls.Add(1)
	if p.panicArmed.CompareAndSwap(true, false) {
		p.fired.Add(1)
		panic(InjectedPanic{Point: name})
	}
	if p.rate <= 0 {
		return nil
	}
	if frac(in.seed, name, n) >= p.rate {
		return nil
	}
	if p.limit > 0 {
		// CAS so concurrent callers can never push fired past the cap.
		for {
			cur := p.fired.Load()
			if cur >= p.limit {
				return nil
			}
			if p.fired.CompareAndSwap(cur, cur+1) {
				return &InjectedError{Point: name, Call: n}
			}
		}
	}
	p.fired.Add(1)
	return &InjectedError{Point: name, Call: n}
}

// frac maps (seed, point, call) to a uniform [0, 1) fraction.
func frac(seed uint64, name string, call uint64) float64 {
	h := mix(seed ^ mix(HashKey(name)^call))
	return float64(h>>11) / (1 << 53)
}

// mix is the splitmix64 finaliser: a cheap, well-distributed bijection.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashKey hashes a string to a uint64 (FNV-1a); used for deterministic
// per-key jitter and the injection decision.
func HashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// active is the process-wide injector; nil means injection is disabled
// and every Fire call is a single atomic load.
var active atomic.Pointer[Injector]

// Enable installs the injector process-wide. Pass nil to disable.
func Enable(in *Injector) {
	active.Store(in)
}

// Disable removes the process-wide injector.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Fire is the injection point call: returns nil immediately when no
// injector is installed (the zero-cost disabled path), otherwise asks
// the active injector whether the fault fires as an error — or as a
// panic, when the point is armed.
func Fire(name string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.fire(name)
}
