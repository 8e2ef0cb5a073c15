package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"airshed/internal/datasets"
	"airshed/internal/hourio"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// miniRun executes a short Mini-dataset run and caches the result across
// tests in this package.
var miniCache = map[int]*Result{}

func miniRun(t *testing.T, nodes int) *Result {
	t.Helper()
	if r, ok := miniCache[nodes]; ok {
		return r
	}
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds,
		Machine: machine.CrayT3E(),
		Nodes:   nodes,
		Hours:   2,
		Mode:    DataParallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	miniCache[nodes] = res
	return res
}

func TestConfigValidate(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	good := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 4, Hours: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Dataset = nil },
		func(c *Config) { c.Machine = nil },
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Hours = 0 },
		func(c *Config) { c.Mode = TaskParallel; c.Nodes = 2 },
		func(c *Config) { c.MaxStepsPerHour = -1 },
	}
	for i, mod := range cases {
		c := good
		mod(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if DataParallel.String() != "data-parallel" || TaskParallel.String() != "task+data-parallel" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode has empty name")
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	res := miniRun(t, 4)
	if res.TotalSteps < 2 {
		t.Errorf("TotalSteps = %d", res.TotalSteps)
	}
	if res.Ledger.Total <= 0 {
		t.Error("zero total time")
	}
	if res.Ledger.ByCat[vm.CatChemistry] <= 0 || res.Ledger.ByCat[vm.CatTransport] <= 0 ||
		res.Ledger.ByCat[vm.CatIO] <= 0 || res.Ledger.ByCat[vm.CatComm] <= 0 {
		t.Errorf("missing ledger categories: %+v", res.Ledger.ByCat)
	}
	for _, v := range res.Final {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite or negative concentration in final state")
		}
	}
	if res.PeakO3 <= 0 {
		t.Error("no ozone recorded")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	// Redistribution counts: per step 1x TransToChem, 1x ChemToRepl;
	// per hour the composite gather counts twice under TransToRepl.
	steps := res.TotalSteps
	if res.RedistCounts[KindTransToChem] != steps {
		t.Errorf("TransToChem count %d, want %d", res.RedistCounts[KindTransToChem], steps)
	}
	if res.RedistCounts[KindChemToRepl] != steps {
		t.Errorf("ChemToRepl count %d, want %d", res.RedistCounts[KindChemToRepl], steps)
	}
	if res.RedistCounts[KindReplToTrans] != steps+2 { // +1 per hour (2 hours)
		t.Errorf("ReplToTrans count %d, want %d", res.RedistCounts[KindReplToTrans], steps+2)
	}
	if res.RedistCounts[KindTransToRepl] != 2*2 {
		t.Errorf("TransToRepl count %d, want 4 (2 phases x 2 hours)", res.RedistCounts[KindTransToRepl])
	}
}

// The headline correctness property: results are bit-identical regardless
// of the virtual node count — the data-parallel semantics the Fx compiler
// guarantees.
func TestResultsIndependentOfNodeCount(t *testing.T) {
	r1 := miniRun(t, 1)
	r4 := miniRun(t, 4)
	r7 := miniRun(t, 7)
	if len(r1.Final) != len(r4.Final) || len(r1.Final) != len(r7.Final) {
		t.Fatal("final array length differs")
	}
	for i := range r1.Final {
		if r1.Final[i] != r4.Final[i] || r1.Final[i] != r7.Final[i] {
			t.Fatalf("element %d differs across node counts: %g / %g / %g",
				i, r1.Final[i], r4.Final[i], r7.Final[i])
		}
	}
	if r1.TotalSteps != r4.TotalSteps {
		t.Error("step count differs across node counts")
	}
}

// The work trace must be identical regardless of node count (it records
// machine-independent numerics).
func TestTraceIndependentOfNodeCount(t *testing.T) {
	r1 := miniRun(t, 1)
	r4 := miniRun(t, 4)
	if r1.Trace.SumChemFlops() != r4.Trace.SumChemFlops() {
		t.Errorf("chem flops differ: %g vs %g", r1.Trace.SumChemFlops(), r4.Trace.SumChemFlops())
	}
	if r1.Trace.SumTransportFlops() != r4.Trace.SumTransportFlops() {
		t.Errorf("transport flops differ")
	}
	if sumIOBytes(r1.Trace) != sumIOBytes(r4.Trace) {
		t.Errorf("io bytes differ")
	}
}

// Replaying the trace must reproduce the physical driver's ledger exactly,
// for every node count.
func TestReplayMatchesDriver(t *testing.T) {
	for _, p := range []int{1, 4, 7} {
		res := miniRun(t, p)
		mr, err := Replay(res.Trace, machine.CrayT3E(), p, DataParallel)
		if err != nil {
			t.Fatal(err)
		}
		assertPricedAs(t, fmt.Sprintf("p=%d", p), res, mr, mr)
	}
}

// Replay across node counts: more nodes never increase chemistry time, and
// transport time saturates once P >= layers.
func TestReplayScalingLaws(t *testing.T) {
	tr := miniRun(t, 4).Trace
	prof := machine.CrayT3E()
	prevChem := math.Inf(1)
	var transAt8, transAt32 float64
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		rr, err := Replay(tr, prof, p, DataParallel)
		if err != nil {
			t.Fatal(err)
		}
		chem := rr.Ledger.ByCat[vm.CatChemistry]
		if chem > prevChem*(1+1e-12) {
			t.Errorf("chemistry time grew from %g to %g at p=%d", prevChem, chem, p)
		}
		prevChem = chem
		if p == 8 {
			transAt8 = rr.Ledger.ByCat[vm.CatTransport]
		}
		if p == 32 {
			transAt32 = rr.Ledger.ByCat[vm.CatTransport]
		}
		// I/O must be constant (sequential).
		if p > 1 {
			r1, _ := Replay(tr, prof, 1, DataParallel)
			if math.Abs(rr.Ledger.ByCat[vm.CatIO]-r1.Ledger.ByCat[vm.CatIO]) > 1e-9 {
				t.Errorf("I/O time varies with p")
			}
		}
	}
	// Transport parallelism bounded by 5 layers: flat beyond 8.
	if math.Abs(transAt8-transAt32) > 1e-9 {
		t.Errorf("transport time changed beyond layer limit: %g vs %g", transAt8, transAt32)
	}
}

// Task-parallel replay: beats data-parallel at scale, loses when nodes are
// scarce, and always needs >= 3 nodes.
func TestTaskParallelReplay(t *testing.T) {
	tr := miniRun(t, 4).Trace
	prof := machine.IntelParagon()
	if _, err := Replay(tr, prof, 2, TaskParallel); err == nil {
		t.Error("task-parallel with 2 nodes accepted")
	}
	d32, err := Replay(tr, prof, 32, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	t32, err := Replay(tr, prof, 32, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	if t32.Ledger.Total >= d32.Ledger.Total {
		t.Errorf("task-parallel no better at 32 nodes: %g vs %g", t32.Ledger.Total, d32.Ledger.Total)
	}
	if len(t32.StageBound) != 3 {
		t.Errorf("stage bounds: %v", t32.StageBound)
	}
	// At 3 nodes, only 1 compute node: must be much slower.
	t3, err := Replay(tr, prof, 3, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Ledger.Total <= t32.Ledger.Total {
		t.Error("3-node task-parallel unexpectedly fast")
	}
}

// Running the driver in TaskParallel mode must agree with the replay.
func TestDriverTaskParallelMode(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds, Machine: machine.IntelParagon(), Nodes: 8, Hours: 1, Mode: TaskParallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Replay(res.Trace, machine.IntelParagon(), 8, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Replay(res.Trace, machine.IntelParagon(), 8, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	assertPricedAs(t, "paragon/8/task", res, mr, dr)
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	tr := miniRun(t, 4).Trace
	path := filepath.Join(t.TempDir(), "sub", "mini.trace")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSteps() != tr.TotalSteps() || got.Dataset != tr.Dataset || got.Shape != tr.Shape {
		t.Error("trace header mismatch after round trip")
	}
	if got.SumChemFlops() != tr.SumChemFlops() {
		t.Error("trace content mismatch after round trip")
	}
	// Replays of original and loaded must be identical.
	a, err := Replay(tr, machine.CrayT3D(), 16, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(got, machine.CrayT3D(), 16, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ledger.Total != b.Ledger.Total {
		t.Error("replay differs after trace round trip")
	}
}

func TestCachedTrace(t *testing.T) {
	tr := miniRun(t, 4).Trace
	path := filepath.Join(t.TempDir(), "cache.trace")
	calls := 0
	compute := func() (*Trace, error) { calls++; return tr, nil }
	a, err := CachedTrace(path, compute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedTrace(path, compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("compute called %d times, want 1", calls)
	}
	if a.TotalSteps() != b.TotalSteps() {
		t.Error("cached trace differs")
	}
}

func TestLoadTraceErrors(t *testing.T) {
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(bad); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestSnapshotWriting(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := Run(Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, Hours: 1,
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "hour_000.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hour, ns, nl, nc, conc, _, err := hourio.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if hour != 0 || ns != ds.Shape.Species || nl != ds.Shape.Layers || nc != ds.Shape.Cells {
		t.Errorf("snapshot dims: hour=%d %d/%d/%d", hour, ns, nl, nc)
	}
	// The snapshot is the final state of hour 0, which for a 1-hour run
	// is the final state of the run.
	for i := range conc {
		if conc[i] != res.Final[i] {
			t.Fatalf("snapshot diverges from final state at %d", i)
		}
	}
}

func TestStepsForHourBounds(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ds.Provider.HourInput(12) // midday: strongest winds
	if err != nil {
		t.Fatal(err)
	}
	n := StepsForHour(in, 5000, 6)
	if n < 2 || n > 6 {
		t.Errorf("StepsForHour = %d, want within [2,6]", n)
	}
	// Calm winds floor at 2.
	for l := range in.WindU {
		for c := range in.WindU[l] {
			in.WindU[l][c], in.WindV[l][c] = 0, 0
		}
	}
	if n := StepsForHour(in, 5000, 6); n != 2 {
		t.Errorf("calm StepsForHour = %d, want 2", n)
	}
}

func TestReplayErrors(t *testing.T) {
	tr := miniRun(t, 4).Trace
	if _, err := Replay(tr, machine.CrayT3E(), 0, DataParallel); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Replay(tr, machine.CrayT3E(), 4, Mode(99)); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := Replay(&Trace{}, machine.CrayT3E(), 4, DataParallel); err == nil {
		t.Error("invalid trace accepted")
	}
	if _, err := Replay(tr, &machine.Profile{}, 4, DataParallel); err == nil {
		t.Error("invalid profile accepted")
	}
}
