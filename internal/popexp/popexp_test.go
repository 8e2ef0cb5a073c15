package popexp

import (
	"math"
	"testing"

	"airshed/internal/dist"
	"airshed/internal/grid"
	"airshed/internal/pvm"
	"airshed/internal/species"
)

func testGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g, err := grid.Uniform(40e3, 40e3, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testPop(t *testing.T, g *grid.Grid) *Population {
	t.Helper()
	p, err := SyntheticPopulation(g, 20e3, 20e3, 10e3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testConc builds a concentration array with distinct values per cell.
func testConc(mech *species.Mechanism, nl, ncells int) []float64 {
	ns := mech.N()
	conc := make([]float64, ns*nl*ncells)
	bg := mech.Backgrounds()
	for c := 0; c < ncells; c++ {
		for l := 0; l < nl; l++ {
			for s := 0; s < ns; s++ {
				conc[s+ns*(l+nl*c)] = bg[s] * (1 + 0.1*float64(c%7))
			}
		}
	}
	return conc
}

func TestSyntheticPopulation(t *testing.T) {
	g := testGrid(t)
	p := testPop(t, g)
	sum := 0.0
	urbanMax, ruralMin := 0.0, math.Inf(1)
	for i, d := range p.Density {
		if d <= 0 {
			t.Fatalf("cell %d has non-positive population", i)
		}
		sum += d
		dist := math.Hypot(g.Cells[i].X-20e3, g.Cells[i].Y-20e3)
		if dist < 8e3 && d > urbanMax {
			urbanMax = d
		}
		if dist > 20e3 && d < ruralMin {
			ruralMin = d
		}
	}
	if math.Abs(sum-1e6)/1e6 > 1e-9 {
		t.Errorf("total population %g, want 1e6", sum)
	}
	if urbanMax <= ruralMin {
		t.Error("population kernel not concentrated in the urban core")
	}
	if _, err := SyntheticPopulation(g, 0, 0, -1, 1e6); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestModelConstruction(t *testing.T) {
	mech := species.StandardMechanism()
	m, err := NewModel(mech)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSpecies() != len(TrackedSpecies) {
		t.Errorf("NumSpecies = %d", m.NumSpecies())
	}
	// A mechanism without O3 must be rejected.
	bad, err := species.NewMechanism([]species.Spec{{Name: "X"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(bad); err == nil {
		t.Error("mechanism without tracked species accepted")
	}
}

func TestComputeHourBasics(t *testing.T) {
	mech := species.StandardMechanism()
	m, _ := NewModel(mech)
	g := testGrid(t)
	pop := testPop(t, g)
	nl := 5
	conc := testConc(mech, nl, len(g.Cells))
	e, flops, err := m.ComputeHour(conc, mech.N(), nl, pop)
	if err != nil {
		t.Fatal(err)
	}
	if flops <= 0 {
		t.Error("no work recorded")
	}
	if e.Hours != 1 {
		t.Errorf("Hours = %d", e.Hours)
	}
	for c := range e.Dose {
		for s := range e.Dose[c] {
			if e.Dose[c][s] <= 0 {
				t.Errorf("dose[%d][%d] = %g", c, s, e.Dose[c][s])
			}
		}
	}
	// Higher cohorts breathe more: dose must be monotone in cohort.
	for s := 0; s < m.NumSpecies(); s++ {
		for c := 1; c < m.Cohorts; c++ {
			if e.Dose[c][s] <= e.Dose[c-1][s] {
				t.Errorf("dose not monotone in cohort at species %d", s)
			}
		}
	}
	if m.RiskIndex(e) <= 0 {
		t.Error("zero risk index")
	}
}

// Partials over a partition must sum to the full-domain dose exactly.
func TestCellRangePartition(t *testing.T) {
	mech := species.StandardMechanism()
	m, _ := NewModel(mech)
	g := testGrid(t)
	pop := testPop(t, g)
	nl := 5
	conc := testConc(mech, nl, len(g.Cells))
	full, _, err := m.ComputeHour(conc, mech.N(), nl, pop)
	if err != nil {
		t.Fatal(err)
	}
	sum := m.NewExposure()
	bounds := []int{0, 7, 13, 25, len(g.Cells)}
	for i := 0; i+1 < len(bounds); i++ {
		part, _, err := m.CellRangeHour(conc, mech.N(), nl, pop, bounds[i], bounds[i+1])
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(part)
	}
	for c := range full.Dose {
		for s := range full.Dose[c] {
			if math.Abs(sum.Dose[c][s]-full.Dose[c][s]) > 1e-9*full.Dose[c][s] {
				t.Errorf("partition sum diverges at [%d][%d]", c, s)
			}
		}
	}
}

// The all-Fx PopExp (priced by the coupled replay in package foreign)
// BLOCK-partitions the cells over its node group. Those partials, reduced
// in node order, must match the serial reference (to summation rounding)
// for any group size, and no node may own more work than the serial hour
// — the paper: "We verified that the Fx and PVM versions of PopExp had
// the same performance behavior".
func TestFxMatchesSerial(t *testing.T) {
	mech := species.StandardMechanism()
	m, _ := NewModel(mech)
	g := testGrid(t)
	pop := testPop(t, g)
	nl := 5
	conc := testConc(mech, nl, len(g.Cells))
	serial, serialFlops, err := m.ComputeHour(conc, mech.N(), nl, pop)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 7} {
		got := m.NewExposure()
		sumFlops, maxFlops := 0.0, 0.0
		for node := 0; node < p; node++ {
			iv := dist.BlockOwner(len(g.Cells), p, node)
			part, flops, err := m.CellRangeHour(conc, mech.N(), nl, pop, iv.Lo, iv.Hi)
			if err != nil {
				t.Fatal(err)
			}
			got.Add(part)
			sumFlops += flops
			maxFlops = math.Max(maxFlops, flops)
		}
		for c := range serial.Dose {
			for s := range serial.Dose[c] {
				if math.Abs(got.Dose[c][s]-serial.Dose[c][s]) > 1e-9*serial.Dose[c][s] {
					t.Errorf("p=%d: dose[%d][%d] = %g, serial %g",
						p, c, s, got.Dose[c][s], serial.Dose[c][s])
				}
			}
		}
		if math.Abs(sumFlops-serialFlops) > 1e-9*serialFlops {
			t.Errorf("p=%d: node flops sum to %g, serial %g", p, sumFlops, serialFlops)
		}
		if maxFlops <= 0 || maxFlops > serialFlops*(1+1e-12) {
			t.Errorf("p=%d: max node flops %g outside (0, %g]", p, maxFlops, serialFlops)
		}
	}
}

func TestCellRangeErrors(t *testing.T) {
	mech := species.StandardMechanism()
	m, _ := NewModel(mech)
	g := testGrid(t)
	pop := testPop(t, g)
	conc := testConc(mech, 5, len(g.Cells))
	if _, _, err := m.CellRangeHour(conc[:10], mech.N(), 5, pop, 0, 5); err == nil {
		t.Error("short conc accepted")
	}
	if _, _, err := m.CellRangeHour(conc, mech.N(), 5, pop, -1, 5); err == nil {
		t.Error("negative lo accepted")
	}
	if _, _, err := m.CellRangeHour(conc, mech.N(), 5, pop, 5, 1000); err == nil {
		t.Error("hi past end accepted")
	}
}

// The PVM master/worker implementation must produce the identical dose
// matrix as the serial reference — the paper verified the Fx and PVM
// PopExp versions agree.
func TestPVMMatchesSerial(t *testing.T) {
	mech := species.StandardMechanism()
	m, _ := NewModel(mech)
	g := testGrid(t)
	pop := testPop(t, g)
	nl := 5
	conc := testConc(mech, nl, len(g.Cells))
	serial, _, err := m.ComputeHour(conc, mech.N(), nl, pop)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 5} {
		vm := pvm.NewMachine()
		master := vm.SpawnHandle()
		var tids []int
		for w := 0; w < workers; w++ {
			tids = append(tids, vm.Spawn(func(t *pvm.Task) {
				_ = PVMWorker(t, m, pop, mech.N(), nl)
			}))
		}
		got, err := PVMMaster(master, tids, m, pop, conc, mech.N(), nl)
		if err != nil {
			t.Fatal(err)
		}
		if err := StopWorkers(master, tids); err != nil {
			t.Fatal(err)
		}
		vm.Wait()
		for c := range serial.Dose {
			for s := range serial.Dose[c] {
				if math.Abs(got.Dose[c][s]-serial.Dose[c][s]) > 1e-9*serial.Dose[c][s] {
					t.Errorf("workers=%d: PVM dose[%d][%d] = %g, serial %g",
						workers, c, s, got.Dose[c][s], serial.Dose[c][s])
				}
			}
		}
	}
}

func TestExposureAdd(t *testing.T) {
	mech := species.StandardMechanism()
	m, _ := NewModel(mech)
	a := m.NewExposure()
	b := m.NewExposure()
	a.Dose[0][0] = 1
	b.Dose[0][0] = 2
	b.Hours = 1
	a.Add(b)
	if a.Dose[0][0] != 3 || a.Hours != 1 {
		t.Errorf("Add: %+v", a)
	}
}
