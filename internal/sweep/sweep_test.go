package sweep

import (
	"context"
	"testing"
	"time"

	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
)

func miniBase(hours int) scenario.Spec {
	return scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: hours}
}

func newEngine(t testing.TB, dir string, workers int) (*Engine, *sched.Scheduler) {
	t.Helper()
	opts := sched.Options{Workers: workers}
	if dir != "" {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
	}
	s := sched.New(opts)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return NewEngine(s), s
}

func awaitSweep(t testing.TB, e *Engine, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	st, err := e.Await(ctx, id)
	if err != nil {
		t.Fatalf("Await(%s): %v", id, err)
	}
	return st
}

func TestExpandCrossProductAndDedupe(t *testing.T) {
	req := Request{
		Base: miniBase(2),
		Grid: Grid{
			NOxScales: []float64{1.0, 0.7},
			VOCScales: []float64{1.0, 0.8},
			Nodes:     []int{2, 4},
		},
	}
	specs, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded to %d specs, want 8", len(specs))
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if seen[sp.Hash()] {
			t.Errorf("duplicate spec %v", sp)
		}
		seen[sp.Hash()] = true
	}

	// A duplicate axis value collapses.
	req.Grid.Nodes = []int{2, 2}
	specs, err = req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Errorf("duplicated axis: %d specs, want 4", len(specs))
	}
}

func TestExpandRejectsBadSpecsAndOversizedGrids(t *testing.T) {
	req := Request{Base: miniBase(1), Grid: Grid{Datasets: []string{"nope"}}}
	if _, err := req.Expand(); err == nil {
		t.Error("unknown dataset accepted")
	}
	big := make([]int, 40)
	for i := range big {
		big[i] = i + 3
	}
	req = Request{Base: miniBase(1), Grid: Grid{Nodes: big, NOxScales: make([]float64, 40), VOCScales: make([]float64, 40)}}
	if _, err := req.Expand(); err == nil {
		t.Error("oversized grid accepted")
	}
}

func TestSeedSpecsFindsSharedPrefixes(t *testing.T) {
	base := miniBase(3)
	a := base
	a.NOxScale, a.ControlStartHour = 0.7, 2
	b := base
	b.NOxScale, b.ControlStartHour = 0.5, 2
	seeds := SeedSpecs([]scenario.Spec{a, b})
	if len(seeds) != 1 {
		t.Fatalf("got %d seeds, want 1: %v", len(seeds), seeds)
	}
	s := seeds[0]
	if s.Hours != 2 || s.NOxScale != 1.0 || s.ControlStartHour != 0 {
		t.Errorf("seed should be the 2-hour baseline, got %v", s)
	}

	// Same physics, different machines: the full run is the seed.
	c := base
	d := base
	d.Machine = "paragon"
	seeds = SeedSpecs([]scenario.Spec{c, d})
	if len(seeds) != 1 || seeds[0].Hours != 3 {
		t.Fatalf("machine family seeds = %v", seeds)
	}

	// Unrelated specs seed nothing.
	e := miniBase(1)
	f := miniBase(2)
	if seeds := SeedSpecs([]scenario.Spec{e, f}); len(seeds) != 0 {
		t.Errorf("unrelated specs produced seeds: %v", seeds)
	}
}

// A store-backed sweep over control variants must compute the shared
// baseline prefix once and warm-start every variant from it.
func TestSweepWarmStartsControlVariants(t *testing.T) {
	e, s := newEngine(t, t.TempDir(), 2)
	req := Request{
		Name: "controls",
		Base: miniBase(3),
		Grid: Grid{
			NOxScales:         []float64{0.7, 0.5},
			ControlStartHours: []int{2},
		},
	}
	st0, err := e.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Total != 2 || st0.Seeds != 1 {
		t.Fatalf("initial status: total=%d seeds=%d, want 2/1", st0.Total, st0.Seeds)
	}
	final := awaitSweep(t, e, st0.ID)
	if final.State != "done" || final.Completed != 2 || final.Failed != 0 {
		t.Fatalf("final status: %+v", final)
	}
	if final.WarmStarts != 2 {
		t.Errorf("want both variants warm-started, got %d (jobs: %+v)", final.WarmStarts, final.Jobs)
	}
	for _, jv := range final.Jobs {
		if jv.WarmStartHour != 2 {
			t.Errorf("job %v warm-started at %d, want 2", jv.Spec, jv.WarmStartHour)
		}
	}
	if len(final.Table) != 2 {
		t.Fatalf("policy table has %d rows, want 2: %q", len(final.Table), final.TableError)
	}
	// The two control levels must actually change the chemistry (a
	// warm-start bug that replays the wrong suffix would collapse them).
	if final.Table[0].PeakO3 == final.Table[1].PeakO3 {
		t.Errorf("both control levels report peak %g", final.Table[0].PeakO3)
	}
	if c := s.Counters(); c.WarmStarts != 2 {
		t.Errorf("scheduler counters: %+v", c)
	}
}

// A machine/mode sweep over one physics runs the numerics once; the
// other jobs are materialised from stored records.
func TestSweepPhysicsReplayAcrossMachines(t *testing.T) {
	e, s := newEngine(t, t.TempDir(), 2)
	req := Request{
		Base: miniBase(2),
		Grid: Grid{Machines: []string{"t3e", "paragon"}, Nodes: []int{2, 4}},
	}
	st0, err := e.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	final := awaitSweep(t, e, st0.ID)
	if final.Completed != 4 || final.Failed != 0 {
		t.Fatalf("final status: %+v", final)
	}
	// The seed computed the physics; all four jobs then replay it (the
	// seed equals one of the jobs, which resolves as a cache hit).
	if got := final.PhysicsReplays + final.CacheHits + final.StoreHits; got != 4 {
		t.Errorf("replays+hits = %d, want all 4 jobs served without simulating (status %+v)", got, final)
	}
	if c := s.Counters(); c.PhysicsReplays < 3 {
		t.Errorf("scheduler counters: %+v", c)
	}
}

func TestSweepWithoutStoreStillCompletes(t *testing.T) {
	e, _ := newEngine(t, "", 2)
	st0, err := e.Start(Request{Base: miniBase(1), Grid: Grid{Nodes: []int{2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if st0.Seeds != 0 {
		t.Errorf("store-less sweep scheduled %d seeds", st0.Seeds)
	}
	final := awaitSweep(t, e, st0.ID)
	if final.Completed != 2 || len(final.Table) != 2 {
		t.Fatalf("final status: %+v", final)
	}
}

func TestUnknownSweep(t *testing.T) {
	e, _ := newEngine(t, "", 1)
	if _, err := e.Status("s9999"); err == nil {
		t.Error("unknown sweep id accepted")
	}
}

// BenchmarkSweepWarmStart measures the batch-study payoff: a sweep of
// emission-control variants against a store holding their shared
// baseline prefix. Compare with BenchmarkSweepColdRuns, which executes
// the same variants with no store — the warm sweep's per-iteration time
// must come in well below the cold one (it simulates one hour per
// variant instead of three).
func BenchmarkSweepWarmStart(b *testing.B) {
	dir := b.TempDir()
	req := Request{
		Base: miniBase(3),
		Grid: Grid{NOxScales: []float64{0.8, 0.6, 0.4}, ControlStartHours: []int{2}},
	}
	// Pre-seed the store with the shared baseline prefix.
	{
		e, _ := newEngine(b, dir, 2)
		st0, err := e.Start(Request{Base: miniBase(3).PrefixSpec(2)})
		if err != nil {
			b.Fatal(err)
		}
		awaitSweep(b, e, st0.ID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh scheduler per iteration: the LRU cache must not mask the
		// store path. Checkpoints written by iteration n-1 make later
		// iterations at least as warm — which is the feature.
		e, _ := newEngine(b, dir, 2)
		b.StartTimer()
		st0, err := e.Start(req)
		if err != nil {
			b.Fatal(err)
		}
		final := awaitSweep(b, e, st0.ID)
		if final.Completed != 3 {
			b.Fatalf("sweep did not complete: %+v", final)
		}
		if final.WarmStarts+final.PhysicsReplays+final.StoreHits != 3 {
			b.Fatalf("iteration ran cold: %+v", final)
		}
	}
}

// BenchmarkSweepColdRuns is the baseline for BenchmarkSweepWarmStart:
// the identical sweep with no artifact store.
func BenchmarkSweepColdRuns(b *testing.B) {
	req := Request{
		Base: miniBase(3),
		Grid: Grid{NOxScales: []float64{0.8, 0.6, 0.4}, ControlStartHours: []int{2}},
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, _ := newEngine(b, "", 2)
		b.StartTimer()
		st0, err := e.Start(req)
		if err != nil {
			b.Fatal(err)
		}
		final := awaitSweep(b, e, st0.ID)
		if final.Completed != 3 {
			b.Fatalf("sweep did not complete: %+v", final)
		}
	}
}
