package sched

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"airshed/internal/scenario"
	"airshed/internal/store"
	"airshed/internal/vm"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runOne submits a spec on a fresh scheduler backed by st and returns
// the finished job.
func runOne(t *testing.T, st *store.Store, spec scenario.Spec) JobStatus {
	t.Helper()
	s := New(Options{Workers: 2, Store: st})
	defer shutdown(t, s)
	job := mustSubmit(t, s, spec)
	return awaitDone(t, s, job.ID)
}

func ledgersEqual(t *testing.T, name string, a, b vm.Ledger) {
	t.Helper()
	if a.Total != b.Total {
		t.Errorf("%s: ledger total %v vs %v", name, a.Total, b.Total)
	}
	for cat, v := range a.ByCat {
		if v != b.ByCat[cat] {
			t.Errorf("%s: ledger %v: %v vs %v", name, cat, v, b.ByCat[cat])
		}
	}
}

// assertEquivalent deep-compares a warm/stored result against the cold
// ground truth: physics and priced times bit-identical.
func assertEquivalent(t *testing.T, name string, warm, cold JobStatus) {
	t.Helper()
	w, c := warm.Result, cold.Result
	if w == nil || c == nil {
		t.Fatalf("%s: missing result (warm=%v cold=%v)", name, w != nil, c != nil)
	}
	if !reflect.DeepEqual(w.Final, c.Final) {
		t.Errorf("%s: final concentrations differ", name)
	}
	if !reflect.DeepEqual(w.HourlyPeakO3, c.HourlyPeakO3) ||
		!reflect.DeepEqual(w.HourlyPeakCell, c.HourlyPeakCell) {
		t.Errorf("%s: hourly peaks differ", name)
	}
	if w.PeakO3 != c.PeakO3 || w.PeakO3Cell != c.PeakO3Cell {
		t.Errorf("%s: peak %g@%d vs %g@%d", name, w.PeakO3, w.PeakO3Cell, c.PeakO3, c.PeakO3Cell)
	}
	if w.TotalSteps != c.TotalSteps {
		t.Errorf("%s: steps %d vs %d", name, w.TotalSteps, c.TotalSteps)
	}
	if len(w.Trace.Hours) != len(c.Trace.Hours) {
		t.Fatalf("%s: trace hours %d vs %d", name, len(w.Trace.Hours), len(c.Trace.Hours))
	}
	ledgersEqual(t, name, w.Ledger, c.Ledger)
	if w.Efficiency != c.Efficiency {
		t.Errorf("%s: efficiency %v vs %v", name, w.Efficiency, c.Efficiency)
	}
}

// A scheduler restarted on the same store must remember completed
// scenarios: the second process serves the result without running
// anything.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cold := runOne(t, openStore(t, dir), miniSpec())
	if cold.Cached || cold.WarmStartHour != 0 {
		t.Fatalf("first run not cold: %+v", cold)
	}

	// "Restart": new store handle, new scheduler, same directory.
	st2 := openStore(t, dir)
	s2 := New(Options{Workers: 1, Store: st2})
	defer shutdown(t, s2)
	job := mustSubmit(t, s2, miniSpec())
	if job.State != Done || !job.FromStore {
		t.Fatalf("restarted scheduler did not serve from store: %+v", job)
	}
	assertEquivalent(t, "restart", job, cold)
	if c := s2.Counters(); c.StoreHits != 1 {
		t.Errorf("counters after restart: %+v", c)
	}
}

// A control variant that shares a baseline physics prefix must
// warm-start from the baseline's checkpoint and produce a result
// equivalent to its own cold run.
func TestWarmStartMatchesColdRun(t *testing.T) {
	base := miniSpec()
	base.Hours = 3

	ctrl := base
	ctrl.NOxScale = 0.6
	ctrl.VOCScale = 0.8
	ctrl.ControlStartHour = 2 // hours 0-1 are baseline physics

	// Ground truth: cold run of the variant on a store-less scheduler.
	coldSched := New(Options{Workers: 1})
	coldJob := mustSubmit(t, coldSched, ctrl)
	cold := awaitDone(t, coldSched, coldJob.ID)
	shutdown(t, coldSched)

	st := openStore(t, t.TempDir())
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)

	baseJob := awaitDone(t, s, mustSubmit(t, s, base).ID)
	if baseJob.WarmStartHour != 0 {
		t.Fatalf("baseline should run cold, got warm start at %d", baseJob.WarmStartHour)
	}
	warm := awaitDone(t, s, mustSubmit(t, s, ctrl).ID)
	if warm.WarmStartHour != 2 || warm.PhysicsReplay {
		t.Fatalf("variant should warm-start at hour 2, got %+v", warm)
	}
	assertEquivalent(t, "warm", warm, cold)
	if c := s.Counters(); c.WarmStarts != 1 {
		t.Errorf("counters: %+v", c)
	}
}

// Resubmitting a completed scenario after its row is lost (but physics
// records and checkpoints survive) must materialise the result from
// stored physics without simulating.
func TestPhysicsReplayMaterialisesResult(t *testing.T) {
	dir := t.TempDir()
	spec := miniSpec()
	spec.Hours = 2
	cold := runOne(t, openStore(t, dir), spec)

	// Drop only the row, as a byte-capped GC might.
	if err := os.Remove(filepath.Join(dir, "specs", spec.Hash()+".spec")); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2 := New(Options{Workers: 1, Store: st2})
	defer shutdown(t, s2)
	job := awaitDone(t, s2, mustSubmit(t, s2, spec).ID)
	if !job.PhysicsReplay {
		t.Fatalf("expected a physics replay, got %+v", job)
	}
	assertEquivalent(t, "replay", job, cold)
	if c := s2.Counters(); c.PhysicsReplays != 1 {
		t.Errorf("counters: %+v", c)
	}
}

// Task-parallel results must survive the store/warm-start paths with
// their pipeline-schedule ledger intact.
func TestPhysicsReplayTaskMode(t *testing.T) {
	dir := t.TempDir()
	spec := miniSpec()
	spec.Nodes = 4
	spec.Mode = scenario.ModeTask
	cold := runOne(t, openStore(t, dir), spec)

	if err := os.Remove(filepath.Join(dir, "specs", spec.Hash()+".spec")); err != nil {
		t.Fatal(err)
	}
	job := runOne(t, openStore(t, dir), spec)
	if !job.PhysicsReplay {
		t.Fatalf("expected a physics replay, got %+v", job)
	}
	assertEquivalent(t, "task-replay", job, cold)
}

// A corrupted checkpoint must be detected, discarded and transparently
// recomputed: the job still succeeds with a correct (cold) run.
func TestCorruptCheckpointFallsBackToColdRun(t *testing.T) {
	dir := t.TempDir()
	base := miniSpec()
	base.Hours = 2
	ctrl := base
	ctrl.NOxScale = 0.5
	ctrl.ControlStartHour = 1

	cold := runOne(t, openStore(t, t.TempDir()), ctrl)

	st := openStore(t, dir)
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)
	awaitDone(t, s, mustSubmit(t, s, base).ID)

	// Corrupt every stored checkpoint in place.
	snaps, err := filepath.Glob(filepath.Join(dir, "checkpoints", "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoints stored (err=%v)", err)
	}
	for _, p := range snaps {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	job := awaitDone(t, s, mustSubmit(t, s, ctrl).ID)
	if job.State != Done {
		t.Fatalf("job failed instead of falling back: %v", job.Err)
	}
	if job.WarmStartHour != 0 {
		t.Errorf("warm-started from a corrupt checkpoint (hour %d)", job.WarmStartHour)
	}
	assertEquivalent(t, "fallback", job, cold)
	if c := st.Counters(); c.Corrupt == 0 {
		t.Errorf("corruption not booked: %+v", c)
	}
}

// failRowsBackend wraps a MemBackend, failing row writes while
// armed — the shape of a store outage that outlives a job's completion.
type failRowsBackend struct {
	*store.MemBackend
	armed atomic.Bool
}

func (b *failRowsBackend) Put(key string, data []byte) error {
	if b.armed.Load() && strings.HasPrefix(key, "specs/") {
		return errors.New("backend: simulated row-write failure")
	}
	return b.MemBackend.Put(key, data)
}

// TestCacheHitRepersistsFailedStoreWrite pins the recovery guarantee the
// fleet journal depends on: a result whose row write failed lives only
// in the LRU cache, and the next cache hit writes it back — so every
// completed result eventually reaches the store once it heals.
func TestCacheHitRepersistsFailedStoreWrite(t *testing.T) {
	backend := &failRowsBackend{MemBackend: store.NewMemBackend()}
	st, err := store.OpenBackend(backend, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)

	spec := miniSpec()
	hash := spec.Normalize().Hash()

	backend.armed.Store(true)
	first := awaitDone(t, s, mustSubmit(t, s, spec).ID)
	if _, ok := st.GetResult(hash); ok {
		t.Fatal("result persisted despite armed write failure")
	}
	if c := s.Counters(); c.Unpersisted != 1 {
		t.Fatalf("Unpersisted = %d, want 1", c.Unpersisted)
	}

	// Store heals; a cache hit re-issues the write.
	backend.armed.Store(false)
	second := awaitDone(t, s, mustSubmit(t, s, spec).ID)
	if !second.Cached {
		t.Fatal("second submission was not a cache hit")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c := s.Counters(); c.Repersisted == 1 && c.Unpersisted == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-persist never completed: %+v", s.Counters())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stored, ok := st.GetResult(hash)
	if !ok {
		t.Fatal("re-persisted result not in store")
	}
	if !reflect.DeepEqual(stored.Final, first.Result.Final) {
		t.Error("re-persisted result differs from the computed one")
	}
}
