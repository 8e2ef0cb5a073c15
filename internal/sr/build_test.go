package sr

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"testing"

	"airshed/internal/core"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

func newEngine(t *testing.T, workers int, st *store.Store) *sweep.Engine {
	t.Helper()
	s := sched.New(sched.Options{Workers: workers, Store: st})
	t.Cleanup(func() { s.Shutdown(context.Background()) }) //nolint:errcheck
	return sweep.NewEngine(s)
}

// maxRelErr is the error metric the bounds below are documented in:
// the maximum absolute per-receptor difference between prediction and
// full run, normalised by the full run's ground-level ozone peak.
func maxRelErr(pred, full []float64) float64 {
	peak := 0.0
	for _, v := range full {
		if v > peak {
			peak = v
		}
	}
	worst := 0.0
	for i := range full {
		d := pred[i] - full[i]
		if d < 0 {
			d = -d
		}
		if e := d / peak; e > worst {
			worst = e
		}
	}
	return worst
}

// Claim: SR prediction reproduces full simulations within documented
// error bounds on the mini dataset. The linear model is exact at the
// perturbation points by construction; between and beyond them the
// error is chemical nonlinearity, which grows with distance from the
// base point. The bounds here are the documented contract (DESIGN.md
// §6f): 0.5% of peak inside the perturbation step, 1% at moderate
// control strength (±10–20%), 3% at aggressive controls (±30–40%).
// Measured errors on mini/2h are ~0.01–0.06% — the bounds leave >30×
// margin so CI noise never flakes the claim.
func TestClaimSRPredictionErrorBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed claim; skipped in -short")
	}
	eng := newEngine(t, 2, nil)
	set := Set{Base: miniBase(), Groups: 2}
	m, err := NewBuilder(eng).Build(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	x, err := newExtractor(set.Normalize().Base)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		nox, voc float64
		bound    float64
	}{
		{"near (within step)", 1.05, 1.0, 0.005},
		{"moderate controls", 0.9, 1.1, 0.01},
		{"aggressive controls", 0.7, 1.4, 0.03},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := miniBase()
			spec.NOxScale, spec.VOCScale = tc.nox, tc.voc
			js, err := eng.Scheduler().Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Scheduler().Await(context.Background(), js.ID)
			if err != nil {
				t.Fatal(err)
			}
			full, err := x.extract(res.Result)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := m.Predict(Query{NOxScale: tc.nox, VOCScale: tc.voc})
			if err != nil {
				t.Fatal(err)
			}
			errGround := maxRelErr(pred.GroundO3, full.groundO3)
			errPeak := (pred.PeakO3 - full.peakO3) / full.peakO3
			if errPeak < 0 {
				errPeak = -errPeak
			}
			t.Logf("nox=%.2f voc=%.2f: ground err %.4f, peak err %.4f (bound %.2f)",
				tc.nox, tc.voc, errGround, errPeak, tc.bound)
			if errGround > tc.bound {
				t.Errorf("ground O3 error %.4f exceeds documented bound %.2f", errGround, tc.bound)
			}
			if errPeak > tc.bound {
				t.Errorf("peak O3 error %.4f exceeds documented bound %.2f", errPeak, tc.bound)
			}
		})
	}

	// Group additivity: perturbing every group by the step through
	// group deltas must agree with the full run at the equivalent
	// global scale — the per-group columns tile the domain.
	t.Run("group deltas sum to global", func(t *testing.T) {
		n := set.Normalize()
		var gds []GroupDelta
		for g := 0; g < n.Groups; g++ {
			gds = append(gds, GroupDelta{Group: g, Knob: KnobNOx, Delta: n.Step})
		}
		pred, err := m.Predict(Query{GroupDeltas: gds})
		if err != nil {
			t.Fatal(err)
		}
		spec := miniBase()
		spec.NOxScale = 1 + n.Step
		js, err := eng.Scheduler().Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Scheduler().Await(context.Background(), js.ID)
		if err != nil {
			t.Fatal(err)
		}
		full, err := x.extract(res.Result)
		if err != nil {
			t.Fatal(err)
		}
		e := maxRelErr(pred.GroundO3, full.groundO3)
		t.Logf("sum-of-groups vs global ground err %.4f", e)
		if e > 0.01 {
			t.Errorf("group columns do not tile the domain: err %.4f > 0.01", e)
		}
	})

	// The base point itself must be exact: a zero query returns the
	// base run's fields untouched.
	t.Run("base point exact", func(t *testing.T) {
		pred, err := m.Predict(Query{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range pred.GroundO3 {
			if v != m.BaseGroundO3[i] {
				t.Fatalf("receptor %d: base point not exact", i)
			}
		}
	})
}

func gobBytes(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Claim: matrix assembly is bit-identical no matter how the
// perturbation runs were scheduled — across worker counts and across a
// local build vs a fleet-style build where the runs land in a shared
// store and assembly happens elsewhere from store reads alone.
func TestClaimAssemblyBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed claim; skipped in -short")
	}
	base := miniBase()
	base.Hours = 1
	set := Set{Base: base, Groups: 2}

	build := func(workers int) (*Matrix, *store.Store) {
		st, err := store.Open(t.TempDir(), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t, workers, st)
		m, err := NewBuilder(eng).Build(context.Background(), set)
		if err != nil {
			t.Fatal(err)
		}
		return m, st
	}

	m1, _ := build(1)
	m3, st3 := build(3)
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, m3)) {
		t.Fatal("assembly differs between 1-worker and 3-worker builds")
	}

	// Fleet path: a different process (here: a fresh Store handle over
	// the same directory) assembles purely from stored results, never
	// having run anything.
	dir := st3.Dir()
	st2, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	n := set.Normalize()
	stored := make(map[string]*core.Result)
	for _, sp := range n.Specs() {
		res, ok := st2.GetResult(sp.Hash())
		if !ok {
			t.Fatalf("store has no result for %s", sp)
		}
		stored[sp.Hash()] = res
	}
	mFleet, err := Assemble(n, stored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, m1), gobBytes(t, mFleet)) {
		t.Fatal("local assembly differs from store-read (fleet) assembly")
	}
	if m1.Key != set.Key() {
		t.Fatal("matrix key does not match the set key")
	}
}

// The serving layer single-flights concurrent builds of one key,
// persists the matrix, faults it back in from the store in a service
// that never held it, and reports a typed miss for unknown keys.
func TestServiceSingleFlightAndResidency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	st, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, 2, st)
	svc := NewService(NewBuilder(eng))

	base := miniBase()
	base.Hours = 1
	set := Set{Base: base, Groups: 1, Knobs: []string{KnobNOx}}
	key := set.Key()

	var wg sync.WaitGroup
	mats := make([]*Matrix, 4)
	for i := range mats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, err := svc.Build(context.Background(), set)
			if err != nil {
				t.Error(err)
				return
			}
			mats[i] = m
		}(i)
	}
	wg.Wait()
	for _, m := range mats[1:] {
		if m != mats[0] {
			t.Fatal("concurrent builds returned distinct matrices")
		}
	}
	if got := svc.Metrics().Builds; got != 1 {
		t.Fatalf("single-flight violated: %d builds", got)
	}
	if got := svc.Metrics().Resident; got != 1 {
		t.Fatalf("resident count %d, want 1", got)
	}

	if _, err := svc.Predict(key, Query{NOxScale: 1.02}); err != nil {
		t.Fatalf("predict on resident matrix: %v", err)
	}
	if svc.Metrics().Predicts != 1 {
		t.Fatal("predict counter did not advance")
	}

	// A service that never built it faults it in from the store — no
	// rebuild.
	fresh := NewService(NewBuilder(eng))
	if _, err := fresh.Predict(key, Query{NOxScale: 1.02}); err != nil {
		t.Fatalf("predict on a fresh service should fault in from store: %v", err)
	}
	if got := fresh.Metrics().Builds; got != 0 {
		t.Fatalf("fault-in rebuilt the matrix: %d builds", got)
	}
	if got := svc.Metrics().Builds; got != 1 {
		t.Fatalf("fault-in rebuilt the matrix: %d builds", got)
	}

	var miss *ErrNoMatrix
	_, err = svc.Predict("deadbeef", Query{})
	if err == nil {
		t.Fatal("predict on unknown key must fail")
	}
	if !asErrNoMatrix(err, &miss) {
		t.Fatalf("want ErrNoMatrix, got %v", err)
	}

	// A second Build of the same set is now a lookup, not a build.
	_, built, err := svc.Build(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Fatal("resident matrix was rebuilt")
	}
}

func asErrNoMatrix(err error, target **ErrNoMatrix) bool {
	if e, ok := err.(*ErrNoMatrix); ok {
		*target = e
		return true
	}
	return false
}

// A builder over a store-less scheduler still works: results come back
// through the engine and the matrix simply is not persisted.
func TestBuilderWithoutStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	eng := newEngine(t, 2, nil)
	base := miniBase()
	base.Hours = 1
	set := Set{Base: base, Groups: 1, Knobs: []string{KnobVOC}}
	m, err := NewBuilder(eng).Build(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Columns) != 2 { // global + 1 group
		t.Fatalf("got %d columns, want 2", len(m.Columns))
	}
	if _, err := m.Predict(Query{VOCScale: 1.05}); err != nil {
		t.Fatal(err)
	}
}
