package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// fastRetry is the dispatch retry policy the tests use: real retries,
// negligible backoff.
func fastRetry(attempts int) resilience.RetryPolicy {
	return resilience.RetryPolicy{MaxAttempts: attempts, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Jitter: 0.5, Seed: 42}
}

func withInjector(t *testing.T, in *resilience.Injector) {
	t.Helper()
	resilience.Enable(in)
	t.Cleanup(resilience.Disable)
}

// referenceResults runs fleetRequest once on a plain single-daemon setup
// and caches the per-spec results every fault-tolerance test compares
// against. Computed lazily, shared across the package's tests.
var refOnce sync.Once
var refResults map[string]*core.Result

func referenceResults(t *testing.T) map[string]*core.Result {
	t.Helper()
	refOnce.Do(func() {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		sc := sched.New(sched.Options{Workers: 2, QueueDepth: 64, Store: st})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sc.Shutdown(ctx) //nolint:errcheck
		}()
		engine := sweep.NewEngine(sc)
		ss, err := engine.Start(fleetRequest())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		if _, err := engine.Await(ctx, ss.ID); err != nil {
			t.Fatal(err)
		}
		specs, err := fleetRequest().Expand()
		if err != nil {
			t.Fatal(err)
		}
		refResults = make(map[string]*core.Result, len(specs))
		for _, sp := range specs {
			h := sp.Normalize().Hash()
			res, ok := st.GetResult(h)
			if !ok {
				t.Fatalf("reference run missing spec %s", h)
			}
			refResults[h] = res
		}
	})
	if refResults == nil {
		t.Fatal("reference run failed earlier in the package")
	}
	return refResults
}

// assertBitIdentical polls st until every reference spec's result is
// present (re-persists are async after a coordinator recovery) and
// bit-identical to the single-daemon reference.
func assertBitIdentical(t *testing.T, st *store.Store, ref map[string]*core.Result) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for h := range ref {
		for {
			if _, ok := st.GetResult(h); ok || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		res, ok := st.GetResult(h)
		if !ok {
			t.Errorf("spec %s missing from fleet store", h)
			continue
		}
		want := ref[h]
		if !reflect.DeepEqual(res.Final, want.Final) {
			t.Errorf("spec %s: fleet result diverged from single-daemon run", h)
		}
		if res.PeakO3 != want.PeakO3 || res.PeakO3Cell != want.PeakO3Cell {
			t.Errorf("spec %s: peak O3 %g@%d vs %g@%d", h,
				res.PeakO3, res.PeakO3Cell, want.PeakO3, want.PeakO3Cell)
		}
	}
}

// TestCoordinatorRecoverResumesSweep is the tentpole acceptance test: a
// coordinator killed mid-sweep (process death — nothing flushed beyond
// the journal's fsyncs) and restarted over the same journal and store
// resumes the sweep where the fleet left it — specs workers finished
// before or during the outage resolve as store hits, the rest re-pack
// across the re-registering workers — and finishes bit-identical to an
// uninterrupted single-daemon run.
func TestCoordinatorRecoverResumesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test is not short")
	}
	ref := referenceResults(t)

	// Workers dial one stable URL; which coordinator incarnation answers
	// (or whether anything answers at all) is swapped behind it.
	var handler atomic.Pointer[http.Handler]
	down := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "coordinator down", http.StatusBadGateway)
	}))
	handler.Store(&down)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()

	dir := t.TempDir()
	jpath := filepath.Join(t.TempDir(), "journal.wal")
	opts := func(j *resilience.Journal, st *store.Store) Options {
		return Options{
			HeartbeatTimeout: 2 * time.Second,
			PollInterval:     100 * time.Millisecond,
			PollFailures:     3,
			Journal:          j,
			Store:            st,
			Retry:            fastRetry(3),
			BreakerCooldown:  500 * time.Millisecond,
			Logf:             t.Logf,
		}
	}

	// Incarnation one: journal + store + coordinator behind the front.
	store1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(opts(j1, store1))
	mux1 := http.NewServeMux()
	coord1.RegisterRoutes(mux1, store.NewBlobServer(store1))
	up1 := http.Handler(mux1)
	handler.Store(&up1)

	workers := []*testWorker{
		startTestWorker(t, "w1", front.URL),
		startTestWorker(t, "w2", front.URL),
	}
	defer func() {
		for _, w := range workers {
			w.shutdown()
		}
	}()
	waitForWorkers(t, coord1, 2)

	st, err := coord1.StartSweep(fleetRequest())
	if err != nil {
		t.Fatal(err)
	}

	// Let the fleet make real progress, then kill the coordinator: wait
	// until at least one spec's result has been persisted, so recovery
	// provably reconciles completed work against the store rather than
	// recomputing the world.
	progressed := false
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		for h := range ref {
			if _, ok := store1.GetResult(h); ok {
				progressed = true
			}
		}
		if progressed {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !progressed {
		t.Fatal("no spec result persisted within 60s; cannot stage a mid-sweep kill")
	}

	// Kill -9 equivalent: the front answers 502, the run loops stop, the
	// journal file descriptor closes. Nothing else is flushed or handed
	// over — recovery may only use what the WAL and store already hold.
	handler.Store(&down)
	coord1.Close()
	j1.Close()
	t.Log("coordinator killed mid-sweep")

	// Incarnation two over the same journal and store.
	store2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	coord2 := NewCoordinator(opts(j2, store2))
	defer coord2.Close()
	n, err := coord2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover resumed %d sweeps, want 1", n)
	}
	mux2 := http.NewServeMux()
	coord2.RegisterRoutes(mux2, store.NewBlobServer(store2))
	up2 := http.Handler(mux2)
	handler.Store(&up2)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	final, err := coord2.Await(ctx, st.ID)
	if err != nil {
		t.Fatalf("recovered sweep did not finish: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("recovered sweep state = %q: %+v", final.State, final)
	}
	if final.Recovered == 0 {
		t.Error("no spec resolved from the store at recovery despite pre-kill progress")
	}
	if final.Completed != len(ref) {
		t.Errorf("recovered sweep completed %d of %d", final.Completed, len(ref))
	}
	if g := coord2.Gauges(); g.SweepsRecovered != 1 {
		t.Errorf("gauges after recovery: %+v", g)
	}
	assertBitIdentical(t, store2, ref)

	// The journal is clean once the recovered sweep retires: a third
	// incarnation would find nothing to do.
	if pending := j2.Pending(); len(pending) != 0 {
		t.Errorf("journal still holds %d records after recovered sweep finished", len(pending))
	}
}

// A journaled spec counts as done at recovery only if its result can be
// read back: three pricings of one physics and one spec of another, all
// with rows in the store, then the first physics loses its end-of-run
// checkpoint. Its three rows survive and must be re-packed, not counted
// as hits; the other spec is the one hit.
func TestRecoverRowWithoutPhysicsIsUnresolved(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 1}
	specs := []scenario.Spec{base, base, base, base}
	specs[1].Nodes, specs[2].Machine = 3, "paragon"
	specs[3].NOxScale = 0.5
	sc := sched.New(sched.Options{Workers: 1, Store: st})
	for i, sp := range specs {
		specs[i] = sp.Normalize()
		js, err := sc.Submit(sp)
		if err == nil {
			js, err = sc.Await(context.Background(), js.ID)
		}
		if err != nil || js.State != sched.Done {
			t.Fatalf("%v: %+v, %v", sp, js, err)
		}
	}
	if err := sc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteBlob(store.KindCheckpoint + "/" + specs[0].PhysicsPrefixHash(specs[0].EndHour()) + ".snap"); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, ok := st.GetManifest(sp.Hash()); !ok {
			t.Fatalf("%v: row missing", sp)
		}
	}

	j, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payload, err := json.Marshal(sweepRecord{Name: "half-lost", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(sweepJournalID("f0007"), payload); err != nil {
		t.Fatal(err)
	}
	before := st.Counters()
	coord := NewCoordinator(Options{Journal: j, Store: st, Logf: t.Logf})
	defer coord.Close()
	if n, err := coord.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 sweep", n, err)
	}
	status, err := coord.Status("f0007")
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "running" || status.Recovered != 1 || status.Total != len(specs) {
		t.Errorf("recovered sweep %+v: want running with 1 of %d specs resolved from the store", status, len(specs))
	}
	coord.mu.Lock()
	pending := append([]scenario.Spec(nil), coord.sweeps["f0007"].pending...)
	coord.mu.Unlock()
	if !reflect.DeepEqual(pending, specs[:3]) {
		t.Errorf("pending after recovery: %v, want the three rows that lost their physics", pending)
	}
	// Four rows, and each physics read once: one record and a missing
	// checkpoint for the lost one, record and checkpoint for the other.
	if c := st.Counters(); c.Hits-before.Hits != 4+3 {
		t.Errorf("Recover read %d artifacts, want 7: the lost physics was read again per row", c.Hits-before.Hits)
	}
}

// journalIDs lists a journal's pending IDs in order.
func journalIDs(j *resilience.Journal) []string {
	var ids []string
	for id := range j.Pending() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// logBuffer collects a coordinator's log lines; safe to write after the
// test returns, unlike t.Logf.
type logBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBuffer) logf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

// TestOneJournalTwoOwners runs a scheduler and a coordinator over one
// journal: a job and a sweep with a shard assignment are accepted, the
// process dies, and each Recover of the next incarnation takes back
// exactly its own records — the scheduler re-submits the job, the
// coordinator resumes the sweep and retires its stale shard — without
// retiring, re-submitting or complaining about the other's. Once both
// finish, nothing is pending.
func TestOneJournalTwoOwners(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	job := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 1, Hours: 2}
	req := sweep.Request{Name: "shared", Specs: []scenario.Spec{
		{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 1},
	}}

	// Incarnation one. The coordinator dispatches the sweep's one shard
	// to a worker that never finishes it.
	j1, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fleetJSON(w, http.StatusAccepted, sweep.Status{ID: "stuck-1", State: "running"})
	}))
	defer stuck.Close()
	coord1 := NewCoordinator(Options{Journal: j1, PollInterval: 50 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Minute, PollFailures: 1000})
	if err := coord1.Register(RegisterRequest{Name: "stuck", URL: stuck.URL, Machine: "gohost",
		HostWorkers: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord1.StartSweep(req); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if ids := journalIDs(j1); len(ids) == 2 && strings.HasPrefix(ids[1], "sh:") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard record journaled: %v", journalIDs(j1))
		}
	}
	sc1 := sched.New(sched.Options{Workers: 1, Journal: j1})
	if _, err := sc1.Submit(job); err != nil {
		t.Fatal(err)
	}
	// The crash: the journal takes no further record, so the job (a
	// two-hour run, accepted microseconds ago) and the sweep stay pending.
	j1.Close()
	coord1.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sc1.Shutdown(cancelled) //nolint:errcheck

	// Incarnation two over the same journal.
	j2, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if ids := journalIDs(j2); !reflect.DeepEqual(ids, []string{"fs:f0001", "j000001", "sh:f0001:0001"}) {
		t.Fatalf("journal after the crash holds %v; want the sweep, its shard and the job", ids)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var logs logBuffer
	coord2 := NewCoordinator(Options{Journal: j2, Store: st, PollInterval: 50 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second, Retry: fastRetry(3), Logf: logs.logf})
	defer coord2.Close()
	if n, err := coord2.Recover(); err != nil || n != 1 {
		t.Fatalf("Coordinator.Recover = %d, %v; want the one sweep", n, err)
	}
	if ids := journalIDs(j2); !reflect.DeepEqual(ids, []string{"fs:f0001", "j000001"}) {
		t.Fatalf("after Coordinator.Recover the journal holds %v; want the sweep and the untouched job", ids)
	}
	sc2 := sched.New(sched.Options{Workers: 1, Journal: j2, Store: st})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sc2.Shutdown(ctx) //nolint:errcheck
	}()
	if n, err := sc2.Recover(); err != nil || n != 1 {
		t.Fatalf("Scheduler.Recover = %d, %v; want the one job", n, err)
	}
	if c := sc2.Counters(); c.Submitted != 1 {
		t.Fatalf("Scheduler.Recover submitted %d jobs; want 1", c.Submitted)
	}
	if pending := j2.Pending(); pending["fs:f0001"] == nil {
		t.Fatalf("Scheduler.Recover retired the sweep record; pending %v", journalIDs(j2))
	}
	if l := logs.String(); strings.Contains(l, "undecodable") || strings.Contains(l, "unrecognised") {
		t.Fatalf("coordinator complained about a record:\n%s", l)
	}

	// Both finish: a real worker joins for the sweep; the job runs here.
	mux := http.NewServeMux()
	coord2.RegisterRoutes(mux, store.NewBlobServer(st))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w := startTestWorker(t, "w1", srv.URL)
	defer w.shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if final, err := coord2.Await(ctx, "f0001"); err != nil || final.State != "done" || final.Completed != 1 {
		t.Fatalf("recovered sweep: %+v, %v", final, err)
	}
	if js, err := sc2.Await(ctx, "j000002"); err != nil || js.State != sched.Done {
		t.Fatalf("re-submitted job: %+v, %v", js, err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(j2.Pending()) != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("journal still holds %v after both finished", journalIDs(j2))
		}
	}
}

// TestFleetChaosBitIdentical runs the whole fleet pipeline under
// deterministic injected chaos — 10%% fault rate on shard dispatch and
// both blob directions, three seeds — and requires every run to finish
// with results bit-identical to the fault-free reference: injected
// faults may cost retries and reassignments, never correctness.
func TestFleetChaosBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos test is not short")
	}
	ref := referenceResults(t)

	for _, seed := range []uint64{1, 7, 42} {
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			coordStore, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			coord := NewCoordinator(Options{
				HeartbeatTimeout: 2 * time.Second,
				PollInterval:     100 * time.Millisecond,
				PollFailures:     3,
				Retry:            fastRetry(3),
				BreakerThreshold: 3,
				BreakerCooldown:  300 * time.Millisecond,
				Logf:             t.Logf,
			})
			defer coord.Close()
			mux := http.NewServeMux()
			coord.RegisterRoutes(mux, store.NewBlobServer(coordStore))
			srv := httptest.NewServer(mux)
			defer srv.Close()

			workers := []*testWorker{
				startTestWorker(t, "w1", srv.URL),
				startTestWorker(t, "w2", srv.URL),
			}
			defer func() {
				for _, w := range workers {
					w.shutdown()
				}
			}()
			waitForWorkers(t, coord, 2)

			in := resilience.New(seed)
			for _, pt := range []string{resilience.PointFleetDispatch,
				resilience.PointFleetBlobGet, resilience.PointFleetBlobPut} {
				in.Set(pt, 0.10)
			}
			withInjector(t, in)

			st, err := coord.StartSweep(fleetRequest())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			final, err := coord.Await(ctx, st.ID)
			if err != nil {
				t.Fatalf("chaos sweep (seed %d) did not finish: %v", seed, err)
			}
			if final.State != "done" {
				t.Fatalf("chaos sweep state = %q: %+v", final.State, final)
			}
			if final.Failed != 0 {
				t.Errorf("chaos sweep had %d failed jobs", final.Failed)
			}
			fired := in.Fired(resilience.PointFleetDispatch) +
				in.Fired(resilience.PointFleetBlobGet) + in.Fired(resilience.PointFleetBlobPut)
			if fired == 0 {
				t.Error("injector never fired — the chaos run exercised nothing")
			}
			t.Logf("seed %d: %d faults injected, %d shards dispatched, %d reassigned",
				seed, fired, coord.Gauges().ShardsDispatched, coord.Gauges().ShardsReassigned)

			resilience.Disable() // stop injecting before the comparison reads
			assertBitIdentical(t, coordStore, ref)

			// Any breaker an outage opened must have recovered by the end:
			// half-open probe, success, closed.
			for _, w := range coord.Workers() {
				if w.Breaker != "" && w.Breaker != "closed" {
					t.Errorf("worker %s breaker ended %q, want closed", w.Name, w.Breaker)
				}
			}
		})
	}
}

// TestCoordinatorBreakerOpensAndRecovers pins the per-worker dispatch
// breaker lifecycle: repeated dispatch failures open it (the packer
// stops routing to the worker), the cooldown half-opens it, the probe
// dispatch succeeds and re-closes it, and the sweep completes.
func TestCoordinatorBreakerOpensAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test is not short")
	}
	coordStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{
		HeartbeatTimeout: 5 * time.Second,
		PollInterval:     50 * time.Millisecond,
		PollFailures:     3,
		Retry:            fastRetry(2),
		BreakerThreshold: 2,
		BreakerCooldown:  400 * time.Millisecond,
		Logf:             t.Logf,
	})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.RegisterRoutes(mux, store.NewBlobServer(coordStore))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w := startTestWorker(t, "w1", srv.URL)
	defer w.shutdown()
	waitForWorkers(t, coord, 1)

	// Exactly 4 injected dispatch faults: two failed dispatches of 2
	// attempts each. Failure one requeues the shard; failure two trips
	// the threshold-2 breaker. The 5th attempt onward succeeds.
	in := resilience.New(3)
	in.SetLimited(resilience.PointFleetDispatch, 1, 4)
	withInjector(t, in)

	st, err := coord.StartSweep(fleetRequest())
	if err != nil {
		t.Fatal(err)
	}

	sawOpen := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !sawOpen; {
		for _, wv := range coord.Workers() {
			if wv.Breaker == "open" {
				sawOpen = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawOpen {
		t.Error("dispatch breaker never observed open after repeated failures")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	final, err := coord.Await(ctx, st.ID)
	if err != nil {
		t.Fatalf("sweep did not finish after breaker recovery: %v", err)
	}
	if final.State != "done" || final.Failed != 0 {
		t.Fatalf("sweep ended %q with %d failures", final.State, final.Failed)
	}
	if fired := in.Fired(resilience.PointFleetDispatch); fired != 4 {
		t.Errorf("dispatch faults fired = %d, want 4", fired)
	}
	for _, wv := range coord.Workers() {
		if wv.Breaker != "closed" {
			t.Errorf("worker %s breaker ended %q, want closed", wv.Name, wv.Breaker)
		}
	}
	if g := coord.Gauges(); g.BreakersOpen != 0 {
		t.Errorf("gauges still show %d open breakers", g.BreakersOpen)
	}
}

// TestCoordinatorHedgesStragglers pins speculative re-dispatch: a shard
// stuck on a straggling worker is hedged to an idle worker once it blows
// past its perfmodel-derived deadline, the twin's completion wins, the
// straggler's copy is cancelled (locally and via DELETE on the worker),
// and nothing is double-counted.
func TestCoordinatorHedgesStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test is not short")
	}
	ref := referenceResults(t)

	coordStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{
		// Generous heartbeat window: the straggler registers once and
		// never beats, and must NOT be rescued by the loss path — only
		// hedging may save this sweep.
		HeartbeatTimeout: 5 * time.Minute,
		PollInterval:     50 * time.Millisecond,
		PollFailures:     1000,
		Retry:            fastRetry(2),
		HedgeFactor:      0.001, // deadline collapses to HedgeMinDelay
		HedgeMinDelay:    300 * time.Millisecond,
		Logf:             t.Logf,
	})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.RegisterRoutes(mux, store.NewBlobServer(coordStore))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// The straggler: accepts its shard, reports running forever at zero
	// progress, records the cancel it eventually receives.
	var accepted, cancelled atomic.Bool
	slowMux := http.NewServeMux()
	slowMux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		accepted.Store(true)
		fleetJSON(w, http.StatusAccepted, sweep.Status{ID: "slow-1", State: "running"})
	})
	slowMux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		fleetJSON(w, http.StatusOK, sweep.Status{ID: "slow-1", State: "running"})
	})
	slowMux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelled.Store(true)
		w.WriteHeader(http.StatusNoContent)
	})
	slowSrv := httptest.NewServer(slowMux)
	defer slowSrv.Close()
	if err := coord.Register(RegisterRequest{
		Name: "slow", URL: slowSrv.URL, Machine: "gohost", HostWorkers: 2, Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}

	w := startTestWorker(t, "fast", srv.URL)
	defer w.shutdown()
	waitForWorkers(t, coord, 2)

	st, err := coord.StartSweep(fleetRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	final, err := coord.Await(ctx, st.ID)
	if err != nil {
		t.Fatalf("hedged sweep did not finish: %v", err)
	}
	if final.State != "done" || final.Failed != 0 {
		t.Fatalf("hedged sweep ended %q with %d failures: %+v", final.State, final.Failed, final)
	}
	if !accepted.Load() {
		t.Fatal("straggler never received a shard — the test staged nothing")
	}
	if g := coord.Gauges(); g.Hedges < 1 {
		t.Errorf("hedges gauge = %d, want >= 1", g.Hedges)
	}
	var hedgeShards, cancelledShards int
	for _, sh := range final.Shards {
		if sh.Hedge {
			hedgeShards++
		}
		if sh.State == "cancelled" {
			cancelledShards++
		}
	}
	if hedgeShards == 0 {
		t.Error("no hedge shard in the final status")
	}
	if cancelledShards == 0 {
		t.Error("the losing copy of the hedged shard was never cancelled")
	}
	if final.Completed != len(ref) {
		t.Errorf("hedged sweep completed %d of %d — duplicate or lost counting", final.Completed, len(ref))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !cancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !cancelled.Load() {
		t.Error("straggler never received the DELETE cancelling its copy")
	}
	assertBitIdentical(t, coordStore, ref)
}

// TestAgentBackoffDeterministic pins the agent's re-register backoff:
// the healthy cadence is the plain interval; consecutive failures grow
// the delay exponentially to the cap; the jitter is deterministic per
// worker name and decorrelated across names (no thundering herd when a
// whole fleet re-registers after a coordinator restart).
func TestAgentBackoffDeterministic(t *testing.T) {
	mk := func(name string) *Agent {
		return &Agent{opts: AgentOptions{Name: name,
			Interval: 100 * time.Millisecond, MaxBackoff: 2 * time.Second}}
	}
	a := mk("w1")
	if d := a.delay(0); d != 100*time.Millisecond {
		t.Fatalf("healthy delay = %v, want the plain interval", d)
	}
	// Exponential growth below the cap: the jittered bands
	// [2^(n-1)*base/2, 2^(n-1)*base] abut, so each failure count's delay
	// is at least the previous one's until the cap truncates the band.
	prev := time.Duration(0)
	for n := 1; n <= 5; n++ {
		d := a.delay(n)
		if d < prev {
			t.Errorf("delay(%d) = %v < delay(%d) = %v", n, d, n-1, prev)
		}
		prev = d
	}
	// At and past the cap the delay sits in the jittered top band.
	for n := 6; n <= 10; n++ {
		if d := a.delay(n); d < time.Second || d > 2*time.Second {
			t.Errorf("capped delay(%d) = %v, want within [cap/2, cap]", n, d)
		}
	}
	if d := a.delay(30); d < time.Second || d > 2*time.Second {
		t.Errorf("deep-failure delay = %v, want within [cap/2, cap]", d)
	}
	// Deterministic per name, decorrelated across names.
	b := mk("w1")
	diverged := false
	for n := 1; n <= 5; n++ {
		if a.delay(n) != b.delay(n) {
			t.Errorf("same-name agents disagree on delay(%d)", n)
		}
		if a.delay(n) != mk("w2").delay(n) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("w1 and w2 share an identical backoff schedule — jitter is not per-worker")
	}
}

// TestAgentHeartbeatDropInjection pins the fleet.heartbeat injection
// point: an armed injector drops beats before they reach the wire, and
// the loop's failure handling (backoff, re-register) takes over.
func TestAgentHeartbeatDropInjection(t *testing.T) {
	var beats, registers atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		registers.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		beats.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	in := resilience.New(5)
	in.SetLimited(resilience.PointFleetHeartbeat, 1, 3) // drop the first 3 beats
	withInjector(t, in)

	agent, err := StartAgent(AgentOptions{
		Coordinator: srv.URL,
		SelfURL:     "http://127.0.0.1:0",
		Name:        "hb-test",
		Machine:     "gohost",
		Interval:    20 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for beats.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if beats.Load() < 2 {
		t.Fatal("agent never resumed heartbeating after injected drops")
	}
	if fired := in.Fired(resilience.PointFleetHeartbeat); fired != 3 {
		t.Errorf("heartbeat faults fired = %d, want 3", fired)
	}
	// Each dropped beat marks the agent unregistered, so it re-registers
	// before beating again: at least one re-registration beyond the boot
	// one must have happened.
	if registers.Load() < 2 {
		t.Errorf("agent re-registered %d times, want >= 2 (boot + post-drop)", registers.Load())
	}
}

// storeDownFleet is a coordinator with a store, one worker, and a switch
// that takes the store's blob routes down while the registry stays up.
type storeDownFleet struct {
	coord     *Coordinator
	store     *store.Store
	worker    *testWorker
	blobsDown *atomic.Bool
}

func newStoreDownFleet(t *testing.T) *storeDownFleet {
	t.Helper()
	coordStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{
		HeartbeatTimeout: 5 * time.Second,
		PollInterval:     50 * time.Millisecond,
		Retry:            fastRetry(3),
		Store:            coordStore,
		Logf:             t.Logf,
	})
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.RegisterRoutes(mux, store.NewBlobServer(coordStore))
	f := &storeDownFleet{coord: coord, store: coordStore, blobsDown: new(atomic.Bool)}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.blobsDown.Load() && strings.HasPrefix(r.URL.Path, "/v1/fleet/blobs") {
			http.Error(w, "store down", http.StatusBadGateway)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	f.worker = startTestWorker(t, "w1", front.URL)
	t.Cleanup(f.worker.shutdown)
	waitForWorkers(t, coord, 1)
	return f
}

// unreadableRequest is a two-spec sweep the worker of f runs on its own
// while the store is down: it ends with both results in the worker's
// memory and neither in the store.
func (f *storeDownFleet) unreadableRequest(ctx context.Context, t *testing.T) (sweep.Request, []scenario.Spec) {
	t.Helper()
	base := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 1}
	req := sweep.Request{Name: "unreadable", Base: base, Grid: sweep.Grid{NOxScales: []float64{1.0, 0.7}}}
	specs, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	f.blobsDown.Store(true)
	ws, err := f.worker.engine.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if ws, err = f.worker.engine.Await(ctx, ws.ID); err != nil || ws.Completed != len(specs) {
		t.Fatalf("worker-side sweep: %+v, %v", ws, err)
	}
	for _, sp := range specs {
		if _, ok := f.store.GetResult(sp.Hash()); ok {
			t.Fatalf("spec %s reached the store while it was down", sp.Hash())
		}
	}
	return req, specs
}

// A shard that reports done counts only the specs whose results read
// back from the store. A worker whose store writes failed (the
// coordinator was unreachable) holds its results in memory and answers a
// later dispatch of the same specs from there, writing nothing; the
// coordinator must see the gap and repair it, not finish the sweep.
func TestDoneShardWithUnreadableResultsIsRepaired(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test is not short")
	}
	f := newStoreDownFleet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, specs := f.unreadableRequest(ctx, t)
	f.blobsDown.Store(false)
	// Let the worker's store breaker (1 s cooldown) admit writes again.
	time.Sleep(1100 * time.Millisecond)

	st, err := f.coord.StartSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := f.coord.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Completed != len(specs) {
		t.Fatalf("sweep ended %q with %d of %d specs completed: %+v", final.State, final.Completed, len(specs), final)
	}
	for _, sp := range specs {
		if _, ok := f.store.GetResult(sp.Hash()); !ok {
			t.Errorf("sweep done, but spec %s does not read back from the store", sp.Hash())
		}
	}
}

// A store that never takes the worker's writes fails the sweep after
// maxRepairs repairs of a spec, naming it, instead of repairing forever
// or reporting done.
func TestUnreadableResultsFailTheSweepAfterRepairs(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test is not short")
	}
	f := newStoreDownFleet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, _ := f.unreadableRequest(ctx, t)

	st, err := f.coord.StartSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := f.coord.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "failed" || !strings.Contains(final.Error, "does not read back") {
		t.Fatalf("sweep over a store that takes no writes ended %q (%s), want failed on an unreadable spec", final.State, final.Error)
	}
}
