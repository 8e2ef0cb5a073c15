// The chaos suite: end-to-end fault injection against the real
// scheduler, store and host engine, driven from fixed seeds. The rule
// under test is the package invariant — injected faults may fail or
// delay work, never corrupt it: any run that completes under injection
// is bit-identical in its physics to the fault-free baseline, a
// panicking worker becomes a failed job (never a dead process), and an
// open store breaker degrades the scheduler to compute-only serving.
//
// The suite lives in an external test package so it can drive sched and
// store, which themselves import resilience. Tests installing the
// process-wide injector must not run in parallel.
package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/fx"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
)

// chaosSeeds are the fixed fault seeds the suite (and CI's chaos-smoke
// job) replays.
var chaosSeeds = []uint64{1, 7, 42}

func chaosSpec(nodes int) scenario.Spec {
	return scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: nodes, Hours: 1}
}

// withInjector installs in process-wide for the test's duration.
func withInjector(t *testing.T, in *resilience.Injector) {
	t.Helper()
	if resilience.Enabled() {
		t.Fatal("another injector is already active")
	}
	resilience.Enable(in)
	t.Cleanup(resilience.Disable)
}

var (
	baselineMu    sync.Mutex
	baselineCache = map[string]*core.Result{}
)

// baseline runs the spec fault-free (once per spec, cached) for the
// bit-identity comparison.
func baseline(t *testing.T, spec scenario.Spec) *core.Result {
	t.Helper()
	if resilience.Enabled() {
		t.Fatal("baseline must be computed before enabling the injector")
	}
	spec = spec.Normalize()
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if res, ok := baselineCache[spec.Hash()]; ok {
		return res
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baselineCache[spec.Hash()] = res
	return res
}

// assertPhysicsIdentical enforces the chaos invariant: the physics of a
// completed run is bit-identical to the fault-free baseline (priced
// times go through replay arithmetic and are compared elsewhere).
func assertPhysicsIdentical(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", name)
	}
	if !reflect.DeepEqual(got.Final, want.Final) {
		t.Errorf("%s: final concentrations differ from the fault-free baseline", name)
	}
	if !reflect.DeepEqual(got.HourlyPeakO3, want.HourlyPeakO3) ||
		!reflect.DeepEqual(got.HourlyPeakCell, want.HourlyPeakCell) {
		t.Errorf("%s: hourly ozone peaks differ from the fault-free baseline", name)
	}
	if got.PeakO3 != want.PeakO3 || got.PeakO3Cell != want.PeakO3Cell {
		t.Errorf("%s: peak %g@%d, baseline %g@%d", name,
			got.PeakO3, got.PeakO3Cell, want.PeakO3, want.PeakO3Cell)
	}
	if got.TotalSteps != want.TotalSteps {
		t.Errorf("%s: steps %d, baseline %d", name, got.TotalSteps, want.TotalSteps)
	}
}

func openChaosStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func shutdownSched(t *testing.T, s *sched.Scheduler) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func awaitJob(t *testing.T, s *sched.Scheduler, id string) sched.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := s.Await(ctx, id)
	if err != nil {
		t.Fatalf("Await(%s): %v", id, err)
	}
	return st
}

// TestChaosStoreFaultsBitIdentical injects a 10% fault rate into store
// reads and writes across the fixed seeds. Store degradation never
// fails a job (persistence is best-effort: reads miss, writes are
// swallowed), so every submission must complete — and bit-identically
// to the fault-free baseline, whether it ran cold, warm-started, or
// was served from a surviving artifact.
func TestChaosStoreFaultsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	specs := []scenario.Spec{chaosSpec(1), chaosSpec(2), chaosSpec(4)}
	want := make(map[string]*core.Result)
	for _, sp := range specs {
		want[sp.Normalize().Hash()] = baseline(t, sp)
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			inj := resilience.New(seed).
				Set(resilience.PointStoreRead, 0.10).
				Set(resilience.PointStoreWrite, 0.10)
			withInjector(t, inj)
			st := openChaosStore(t)

			// Two generations against one store: the second exercises
			// the faulted read paths (result hits, warm starts).
			for gen := 0; gen < 2; gen++ {
				s := sched.New(sched.Options{
					Workers: 2, Store: st,
					Retry: resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Jitter: 0.5, Seed: seed},
				})
				for _, sp := range specs {
					job, err := s.Submit(sp)
					if err != nil {
						t.Fatalf("Submit(%v): %v", sp, err)
					}
					final := awaitJob(t, s, job.ID)
					if final.State != sched.Done {
						t.Fatalf("gen %d %v: state %v, err %v", gen, sp, final.State, final.Err)
					}
					assertPhysicsIdentical(t, sp.Hash(), final.Result, want[sp.Normalize().Hash()])
				}
				shutdownSched(t, s)
			}
			if inj.Calls(resilience.PointStoreWrite) == 0 {
				t.Error("no store writes were attempted: the chaos run exercised nothing")
			}
		})
	}
}

// TestChaosRetryRecoversTransientFaults fails the first two execution
// attempts of a job outright (a limited sched.exec outage) and expects
// the retry loop to land the third attempt, with the attempt count and
// last transient error surfaced on the job.
func TestChaosRetryRecoversTransientFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	for _, seed := range chaosSeeds {
		inj := resilience.New(seed).SetLimited(resilience.PointSchedExec, 1, 2)
		resilience.Enable(inj)
		s := sched.New(sched.Options{
			Workers: 1,
			Retry:   resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Jitter: 0.5, Seed: seed},
		})
		job, err := s.Submit(chaosSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		final := awaitJob(t, s, job.ID)
		if final.State != sched.Done {
			t.Fatalf("seed %d: job did not recover: %v (%v)", seed, final.State, final.Err)
		}
		if final.Attempts != 3 {
			t.Errorf("seed %d: attempts = %d, want 3", seed, final.Attempts)
		}
		if final.LastErr == nil || !resilience.IsTransient(final.LastErr) {
			t.Errorf("seed %d: last transient error not surfaced: %v", seed, final.LastErr)
		}
		if c := s.Counters(); c.Retries != 2 {
			t.Errorf("seed %d: retries counter = %d, want 2", seed, c.Retries)
		}
		shutdownSched(t, s)
		resilience.Disable()
	}
}

// TestChaosPipelineStageFaultsRecover injects one transient fault into
// each hour-loop I/O stage (the input decode and the snapshot write) of a
// multi-hour run, across the fixed seeds. The first attempt dies in the
// input stage, the second in the output stage, the third completes — and
// the recovered physics must be bit-identical to the fault-free baseline,
// pinning the fault-determinism rule (DESIGN.md §6d) through the hour
// loop.
func TestChaosPipelineStageFaultsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	spec := chaosSpec(2)
	spec.Hours = 3
	want := baseline(t, spec)

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			// "depth-0" names the inline hour loop; it keeps the subtest
			// IDs stable.
			t.Run("depth-0", func(t *testing.T) {
				inj := resilience.New(seed).
					SetLimited(resilience.PointPipePrefetch, 1, 1).
					SetLimited(resilience.PointPipeWrite, 1, 1)
				withInjector(t, inj)
				s := sched.New(sched.Options{
					Workers: 1,
					Retry:   resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Jitter: 0.5, Seed: seed},
				})
				defer shutdownSched(t, s)

				job, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				final := awaitJob(t, s, job.ID)
				if final.State != sched.Done {
					t.Fatalf("job did not recover: %v (%v)", final.State, final.Err)
				}
				if final.Attempts != 3 {
					t.Errorf("attempts = %d, want 3 (one per faulted stage, then clean)", final.Attempts)
				}
				if final.LastErr == nil || !resilience.IsTransient(final.LastErr) {
					t.Errorf("stage fault not surfaced as transient: %v", final.LastErr)
				}
				for _, pt := range []string{resilience.PointPipePrefetch, resilience.PointPipeWrite} {
					if inj.Fired(pt) != 1 {
						t.Errorf("point %s fired %d times, want 1", pt, inj.Fired(pt))
					}
				}
				assertPhysicsIdentical(t, fmt.Sprintf("pipeline-seed-%d", seed), final.Result, want)
			})
		})
	}
}

// TestChaosPanicBecomesFailedJob arms a one-shot panic in the job
// execution path: the job must fail with the contained PanicError (a
// permanent failure — exactly one attempt), the panic counter must
// move, and the same worker must cleanly run the next job.
func TestChaosPanicBecomesFailedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	inj := resilience.New(1).ArmPanic(resilience.PointSchedExec)
	withInjector(t, inj)
	s := sched.New(sched.Options{Workers: 1})
	defer shutdownSched(t, s)

	job, err := s.Submit(chaosSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, s, job.ID)
	if final.State != sched.Failed {
		t.Fatalf("panicked job state = %v, want failed", final.State)
	}
	var pe *resilience.PanicError
	if !errors.As(final.Err, &pe) {
		t.Fatalf("job error %v does not carry the PanicError", final.Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("contained panic lost its stack")
	}
	if final.Attempts != 1 {
		t.Errorf("panicked job made %d attempts, want 1 (panics are permanent)", final.Attempts)
	}
	if c := s.Counters(); c.Panics != 1 || c.Failed != 1 {
		t.Errorf("counters = %+v, want 1 panic / 1 failed", c)
	}

	// The pool survived: the next job on the same single worker runs.
	job2, err := s.Submit(chaosSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if final2 := awaitJob(t, s, job2.ID); final2.State != sched.Done {
		t.Fatalf("worker did not survive the panic: %v (%v)", final2.State, final2.Err)
	}
}

// TestChaosEnginePanicContained arms a one-shot panic inside a host
// engine chunk — the deepest containment layer. The run fails with the
// chunk's PanicError, the engine's panic gauge moves, and the shared
// pool keeps executing later runs bit-identically.
func TestChaosEnginePanicContained(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	want := baseline(t, chaosSpec(2))
	before := fx.SharedEngine().Stats().Panics

	inj := resilience.New(7).ArmPanic(resilience.PointFxChunk)
	withInjector(t, inj)
	s := sched.New(sched.Options{Workers: 1})
	defer shutdownSched(t, s)

	job, err := s.Submit(chaosSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, s, job.ID)
	if final.State != sched.Failed {
		t.Fatalf("run with a panicking chunk: state %v, err %v", final.State, final.Err)
	}
	if final.Err == nil || !strings.Contains(final.Err.Error(), "panic") {
		t.Errorf("chunk panic not surfaced in the job error: %v", final.Err)
	}
	if got := fx.SharedEngine().Stats().Panics; got != before+1 {
		t.Errorf("engine panic gauge = %d, want %d", got, before+1)
	}

	// The pool survived and still computes correctly.
	resilience.Disable()
	job2, err := s.Submit(chaosSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	final2 := awaitJob(t, s, job2.ID)
	if final2.State != sched.Done {
		t.Fatalf("engine did not survive the chunk panic: %v (%v)", final2.State, final2.Err)
	}
	assertPhysicsIdentical(t, "post-panic", final2.Result, want)
}

// TestChaosBreakerDegradesToComputeOnly drives every store write into
// failure until the breaker opens, and verifies the scheduler's
// contract in that state: jobs keep completing (compute-only,
// bit-identical), degraded operations are counted instead of hitting
// the disk, and the store reports Degraded for /healthz.
func TestChaosBreakerDegradesToComputeOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	want := map[string]*core.Result{
		chaosSpec(2).Normalize().Hash(): baseline(t, chaosSpec(2)),
		chaosSpec(1).Normalize().Hash(): baseline(t, chaosSpec(1)),
	}

	inj := resilience.New(42).Set(resilience.PointStoreWrite, 1)
	withInjector(t, inj)
	st := openChaosStore(t)
	st.SetBreaker(resilience.NewBreaker(2, time.Hour)) // opens fast, stays open
	s := sched.New(sched.Options{Workers: 1, Store: st,
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: 0.5}})
	defer shutdownSched(t, s)

	job, err := s.Submit(chaosSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, s, job.ID)
	if final.State != sched.Done {
		t.Fatalf("job under total write failure: %v (%v)", final.State, final.Err)
	}
	assertPhysicsIdentical(t, "breaker-open", final.Result, want[final.Hash])

	if !st.Degraded() {
		t.Fatal("store did not degrade after consecutive write failures")
	}
	c := st.Counters()
	if c.Faults < 2 {
		t.Errorf("store faults = %d, want >= breaker threshold 2", c.Faults)
	}
	if c.DegradedOps == 0 {
		t.Error("no operations were refused while degraded")
	}

	// Still serving while degraded — the faults are now irrelevant
	// because the breaker refuses before the injection point.
	job2, err := s.Submit(chaosSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	final2 := awaitJob(t, s, job2.ID)
	if final2.State != sched.Done {
		t.Fatalf("degraded scheduler stopped serving: %v (%v)", final2.State, final2.Err)
	}
	assertPhysicsIdentical(t, "degraded-serving", final2.Result, want[final2.Hash])
}

// TestChaosBreakerRecovers closes the loop: once the underlying faults
// stop and the cooldown elapses, the store's half-open probe re-admits
// I/O and the degraded flag clears.
func TestChaosBreakerRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs real numerics")
	}
	res := baseline(t, chaosSpec(2))

	inj := resilience.New(7).Set(resilience.PointStoreWrite, 1)
	withInjector(t, inj)
	st := openChaosStore(t)
	// The cooldown must comfortably outlast the encode work a PutResult
	// does before it consults the breaker — under -race on a loaded
	// machine that encode alone can take tens of milliseconds, and a
	// too-short cooldown lets the breaker go half-open between the two
	// calls below.
	st.SetBreaker(resilience.NewBreaker(1, 500*time.Millisecond))

	if err := st.PutResult("deadbeef", res); err == nil {
		t.Fatal("injected write unexpectedly succeeded")
	}
	if !st.Degraded() {
		t.Fatal("breaker did not open")
	}
	if err := st.PutResult("deadbeef", res); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("write while open = %v, want ErrDegraded", err)
	}

	// The outage ends; after the cooldown the probe write re-closes.
	resilience.Disable()
	time.Sleep(600 * time.Millisecond)
	if err := st.PutResult("deadbeef", res); err != nil {
		t.Fatalf("probe write after recovery: %v", err)
	}
	if st.Degraded() {
		t.Error("store still degraded after a successful probe")
	}
	if got, ok := st.GetResult("deadbeef"); !ok || got.PeakO3 != res.PeakO3 {
		t.Error("recovered store lost the probe write")
	}
}
