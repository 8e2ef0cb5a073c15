package core

import (
	"math"
	"testing"

	"airshed/internal/dist"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// syntheticTrace builds a hand-written trace with known totals.
func syntheticTrace() *Trace {
	mk := func(layer, cell float64) StepTrace {
		st := StepTrace{
			LayerFlops: []float64{layer, layer, layer},
			CellFlops:  []float64{cell, cell, cell, cell},
			AeroFlops:  10,
		}
		return st
	}
	return &Trace{
		Dataset: "synthetic",
		Shape:   dist.Shape{Species: 2, Layers: 3, Cells: 4},
		Hours: []HourTrace{
			{InBytes: 100, OutBytes: 200, PretransFlops: 50, Steps: []StepTrace{mk(5, 7), mk(5, 7)}},
			{InBytes: 100, OutBytes: 200, PretransFlops: 50, Steps: []StepTrace{mk(5, 7)}},
		},
	}
}

func TestTraceSums(t *testing.T) {
	tr := syntheticTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalSteps(); got != 3 {
		t.Errorf("TotalSteps = %d", got)
	}
	// Chemistry: 3 steps x 4 cells x 7 flops.
	if got := tr.SumChemFlops(); got != 3*4*7 {
		t.Errorf("SumChemFlops = %g", got)
	}
	// Transport: 3 steps x 2 calls x 3 layers x 5 flops.
	if got := tr.SumTransportFlops(); got != 3*2*3*5 {
		t.Errorf("SumTransportFlops = %g", got)
	}
	if got := tr.SumAeroFlops(); got != 30 {
		t.Errorf("SumAeroFlops = %g", got)
	}
	if got := sumIOBytes(tr); got != 600 {
		t.Errorf("I/O bytes = %d", got)
	}
}

// sumIOBytes totals the sequential I/O volume over the run.
func sumIOBytes(t *Trace) int64 {
	var total int64
	for hi := range t.Hours {
		total += t.Hours[hi].InBytes + t.Hours[hi].OutBytes
	}
	return total
}

// Validate rejects malformed traces, among them any recorded amount of
// work that is NaN, infinite or negative, or whose total overflows:
// otherwise a loaded or stored trace prices to a NaN, infinite or
// negative ledger.
func TestTraceValidateRejects(t *testing.T) {
	base := syntheticTrace
	cases := []func(*Trace){
		func(tr *Trace) { tr.Shape.Cells = 0 },
		func(tr *Trace) { tr.Shape.Species = 1 << 60 }, // byte counts overflow int64
		func(tr *Trace) { tr.Hours = nil },
		func(tr *Trace) { tr.Hours[0].InBytes = -1 },
		func(tr *Trace) { tr.Hours[0].Steps = nil },
		func(tr *Trace) { tr.Hours[0].Steps[0].LayerFlops = tr.Hours[0].Steps[0].LayerFlops[:1] },
		func(tr *Trace) { tr.Hours[1].Steps[0].CellFlops = nil },
		func(tr *Trace) {
			tr.Hours[0].Steps[0].CellFlops[0] = math.MaxFloat64
			tr.Hours[0].Steps[0].CellFlops[1] = math.MaxFloat64
		},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cases = append(cases,
			func(tr *Trace) { tr.Hours[1].PretransFlops = v },
			func(tr *Trace) { tr.Hours[0].Steps[1].LayerFlops[2] = v },
			func(tr *Trace) { tr.Hours[1].Steps[0].CellFlops[3] = v },
			func(tr *Trace) { tr.Hours[0].Steps[0].AeroFlops = v },
		)
	}
	for i, mod := range cases {
		tr := base()
		mod(tr)
		if tr.Validate() == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

// On a synthetic trace the replay must equal hand-computed phase times.
func TestReplayHandComputed(t *testing.T) {
	tr := syntheticTrace()
	prof := machine.CrayT3E()

	rr, err := Replay(tr, prof, 1, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	// At P=1 everything is sequential and communication-free.
	wantChem := prof.ComputeTime(tr.SumChemFlops())
	if math.Abs(rr.Ledger.ByCat[vm.CatChemistry]-wantChem) > 1e-18 {
		t.Errorf("chem = %g, want %g", rr.Ledger.ByCat[vm.CatChemistry], wantChem)
	}
	wantTrans := prof.ComputeTime(tr.SumTransportFlops())
	if math.Abs(rr.Ledger.ByCat[vm.CatTransport]-wantTrans) > 1e-18 {
		t.Errorf("trans = %g, want %g", rr.Ledger.ByCat[vm.CatTransport], wantTrans)
	}
	// Even at P=1 every redistribution performs a local copy of the
	// whole array (the H term of the paper's model): steps+hours
	// Repl->Trans, steps Trans->Chem, steps Chem->Repl, and 2 moves per
	// hourly two-phase gather.
	steps, hours := tr.TotalSteps(), len(tr.Hours)
	nRedist := (steps + hours) + steps + steps + 2*hours
	wantComm := float64(nRedist) * prof.CopySec * float64(tr.Shape.Len()*prof.WordSize)
	if math.Abs(rr.Ledger.ByCat[vm.CatComm]-wantComm) > 1e-15 {
		t.Errorf("comm at P=1 = %g, want %g (pure local copies)", rr.Ledger.ByCat[vm.CatComm], wantComm)
	}
	wantIO := 0.0
	for _, h := range tr.Hours {
		wantIO += prof.IOTime(h.InBytes) + prof.IOTime(h.OutBytes) + prof.ComputeTime(h.PretransFlops)
	}
	if math.Abs(rr.Ledger.ByCat[vm.CatIO]-wantIO) > 1e-15 {
		t.Errorf("io = %g, want %g", rr.Ledger.ByCat[vm.CatIO], wantIO)
	}

	// At P=3 (= layers) with uniform layer work, transport time is a
	// third of sequential.
	rr3, err := Replay(tr, prof, 3, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rr3.Ledger.ByCat[vm.CatTransport]-wantTrans/3) > 1e-15 {
		t.Errorf("trans at P=3 = %g, want %g", rr3.Ledger.ByCat[vm.CatTransport], wantTrans/3)
	}
	// Aerosol is replicated: constant across P.
	if rr3.Ledger.ByCat[vm.CatAerosol] != rr.Ledger.ByCat[vm.CatAerosol] {
		t.Error("aerosol time varies with P")
	}
}

// Redistribution counts follow from the loop structure: per step one
// Trans->Chem, one Chem->Repl; Repl->Trans once per step plus once per
// hour; the hourly gather twice per hour (two-phase).
func TestReplayRedistCounts(t *testing.T) {
	tr := syntheticTrace()
	rr, err := Replay(tr, machine.CrayT3E(), 4, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	steps := tr.TotalSteps()
	hours := len(tr.Hours)
	if rr.RedistCounts[KindTransToChem] != steps {
		t.Errorf("TransToChem = %d, want %d", rr.RedistCounts[KindTransToChem], steps)
	}
	if rr.RedistCounts[KindChemToRepl] != steps {
		t.Errorf("ChemToRepl = %d, want %d", rr.RedistCounts[KindChemToRepl], steps)
	}
	if rr.RedistCounts[KindReplToTrans] != steps+hours {
		t.Errorf("ReplToTrans = %d, want %d", rr.RedistCounts[KindReplToTrans], steps+hours)
	}
	if rr.RedistCounts[KindTransToRepl] != 2*hours {
		t.Errorf("TransToRepl = %d, want %d", rr.RedistCounts[KindTransToRepl], 2*hours)
	}
}

// The combined-I/O 2-stage pipeline must sit between data-parallel and the
// 3-stage pipeline when I/O is the bottleneck, and requires >= 2 nodes.
func TestReplayTaskCombined(t *testing.T) {
	tr := syntheticTrace()
	// Inflate the I/O volumes so the pipeline matters.
	for i := range tr.Hours {
		tr.Hours[i].InBytes = 50_000_000
		tr.Hours[i].OutBytes = 50_000_000
	}
	prof := machine.IntelParagon()
	pr, err := NewPricer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.ReplayTaskCombined(prof, 1); err == nil {
		t.Error("1 node accepted")
	}
	dp, err := pr.Replay(prof, 16, DataParallel)
	if err != nil {
		t.Fatal(err)
	}
	two, err := pr.ReplayTaskCombined(prof, 16)
	if err != nil {
		t.Fatal(err)
	}
	three, err := pr.Replay(prof, 16, TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	if !(three.Ledger.Total <= two.Ledger.Total && two.Ledger.Total <= dp.Ledger.Total) {
		t.Errorf("pipeline ordering violated: dp %g, 2-stage %g, 3-stage %g",
			dp.Ledger.Total, two.Ledger.Total, three.Ledger.Total)
	}
	if len(two.StageBound) == 0 {
		t.Error("no stage bounds reported")
	}
}
