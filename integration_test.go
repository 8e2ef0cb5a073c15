package airshed

// Integration tests: exercise the public facade end-to-end across the
// subsystems — simulation driver, fx runtime, trace replay, analytic
// model, hourly I/O and the foreign-module coupling.

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"airshed/internal/core"
	frn "airshed/internal/foreign"
	"airshed/internal/hourio"
	"airshed/internal/popexp"
	"airshed/internal/vm"
)

func miniResult(t *testing.T) *Result {
	t.Helper()
	ds, err := Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds,
		Machine: CrayT3E(),
		Nodes:   4,
		Hours:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeEndToEnd(t *testing.T) {
	res := miniResult(t)
	if res.Ledger.Total <= 0 || res.TotalSteps < 4 {
		t.Fatalf("implausible run: %+v", res.Ledger)
	}

	// Replay through the facade reproduces the driver ledger.
	rr, err := Replay(res.Trace, CrayT3E(), 4, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rr.Ledger.Total-res.Ledger.Total) > 1e-9*res.Ledger.Total {
		t.Errorf("facade replay %g != run %g", rr.Ledger.Total, res.Ledger.Total)
	}

	// The analytic model lands near the measurement.
	pred, err := Predict(res.Trace, CrayT3E(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.Total-res.Ledger.Total)/res.Ledger.Total > 0.2 {
		t.Errorf("prediction %g vs measurement %g", pred.Total, res.Ledger.Total)
	}
}

func TestFacadeLookups(t *testing.T) {
	for _, name := range []string{"la", "ne", "mini"} {
		if _, err := DatasetByName(name); err != nil {
			t.Errorf("DatasetByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"t3e", "t3d", "paragon", "gohost"} {
		if _, err := MachineByName(name); err != nil {
			t.Errorf("MachineByName(%q): %v", name, err)
		}
	}
	ds, err := LAControls(0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Provider.Scenario().NOxScale != 0.5 || ds.Provider.Scenario().VOCScale != 0.9 {
		t.Error("LAControls did not apply scales")
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	res := miniResult(t)
	path := filepath.Join(t.TempDir(), "mini.trace")
	if err := SaveTrace(path, res.Trace); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Replay(res.Trace, IntelParagon(), 16, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(tr, IntelParagon(), 16, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ledger.Total != b.Ledger.Total {
		t.Error("replay differs after round trip")
	}
}

// The full multidisciplinary pipeline of the paper's Section 6: simulate,
// snapshot, couple to the PVM PopExp module, compute exposure.
func TestCoupledPipelineEndToEnd(t *testing.T) {
	ds, err := Mini()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := Run(Config{
		Dataset:     ds,
		Machine:     CrayT3E(),
		Nodes:       4,
		Hours:       1,
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	model, err := popexp.NewModel(ds.Mechanism())
	if err != nil {
		t.Fatal(err)
	}
	pop, err := popexp.SyntheticPopulation(ds.Grid(), 20e3, 20e3, 9e3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	coupler, err := frn.NewCoupler(model, pop, ds.Shape.Species, ds.Shape.Layers, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer coupler.Stop()

	f, err := os.Open(filepath.Join(dir, "hour_000.snap"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, _, conc, _, err := hourio.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot equals the run's final state for a 1-hour run.
	for i := range conc {
		if conc[i] != res.Final[i] {
			t.Fatal("snapshot diverges from run state")
		}
	}
	exp, err := coupler.ProcessHour(conc)
	if err != nil {
		t.Fatal(err)
	}
	if model.RiskIndex(exp) <= 0 {
		t.Error("no exposure computed")
	}
	// The coupled cost model prices the same configuration.
	pr, err := core.NewPricer(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := frn.ReplayCoupled(pr, model, IntelParagon(), 8, true, frn.ScenarioA)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ledger.ByCat[vm.CatPopExp] <= 0 {
		t.Error("coupled replay has no PopExp time")
	}
}

// Photochemistry sanity across the whole stack: simulating into the sunlit
// morning raises ground-level ozone above the initial state somewhere in
// the domain.
func TestPhotochemicalDayProducesOzone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour simulation")
	}
	ds, err := Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds,
		Machine: CrayT3E(),
		Nodes:   2,
		Hours:   11, // midnight through late morning
	})
	if err != nil {
		t.Fatal(err)
	}
	iO3 := ds.Mechanism().MustIndex("O3")
	bg := ds.Mechanism().Species[iO3].Background
	if res.PeakO3 <= bg {
		t.Errorf("peak O3 %.4f not above background %.4f after a sunlit morning", res.PeakO3, bg)
	}
}

// The diurnal ozone cycle: over a simulated day the ground-level ozone
// peak must land in the afternoon (photochemical production lags the noon
// sun), the signature behaviour of the urban airshed the model exists to
// capture.
func TestDiurnalOzonePeakTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day simulation")
	}
	ds, err := Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds,
		Machine: CrayT3E(),
		Nodes:   2,
		Hours:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HourlyPeakO3) != 20 {
		t.Fatalf("%d hourly peaks", len(res.HourlyPeakO3))
	}
	argmax := 0
	for h, v := range res.HourlyPeakO3 {
		if v > res.HourlyPeakO3[argmax] {
			argmax = h
		}
	}
	if argmax < 10 || argmax > 19 {
		t.Errorf("ozone peaked at hour %d; want an afternoon peak (hours 10-19): %v",
			argmax, res.HourlyPeakO3)
	}
	// Night hours must sit below the daytime peak.
	if res.HourlyPeakO3[3] >= res.HourlyPeakO3[argmax] {
		t.Error("night ozone not below the daytime peak")
	}
}

// The task-parallel facade path on a realistic node count must beat the
// data-parallel one for the LA-scale problem, as in the paper.
func TestTaskParallelWinsAtScaleLA(t *testing.T) {
	if testing.Short() {
		t.Skip("LA trace generation is expensive")
	}
	ds, err := LA()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds,
		Machine: IntelParagon(),
		Nodes:   1,
		Hours:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Replay(res.Trace, IntelParagon(), 64, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Replay(res.Trace, IntelParagon(), 64, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Ledger.Total >= dp.Ledger.Total {
		t.Errorf("task-parallel (%g) not faster than data-parallel (%g) at 64 Paragon nodes",
			tp.Ledger.Total, dp.Ledger.Total)
	}
}
