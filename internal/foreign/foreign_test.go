package foreign

import (
	"math"
	"testing"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/machine"
	"airshed/internal/popexp"
	"airshed/internal/species"
	"airshed/internal/vm"
)

// miniPricer prices a 2-hour mini run's trace.
func miniPricer(t *testing.T) *core.Pricer {
	t.Helper()
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, Hours: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewPricer(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func testModel(t *testing.T) *popexp.Model {
	t.Helper()
	m, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGroupsFor(t *testing.T) {
	if _, err := GroupsFor(3); err == nil {
		t.Error("3 nodes accepted")
	}
	for _, p := range []int{4, 8, 16, 64} {
		g, err := GroupsFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if g.Input+g.Output+g.PopExp+g.Compute != p {
			t.Errorf("p=%d: groups %+v do not sum", p, g)
		}
		if g.Compute < 1 || g.PopExp < 1 {
			t.Errorf("p=%d: degenerate groups %+v", p, g)
		}
	}
}

func TestScenarioString(t *testing.T) {
	for _, s := range []Scenario{ScenarioA, ScenarioB, ScenarioC} {
		if s.String() == "" {
			t.Error("empty scenario name")
		}
	}
	if Scenario(9).String() == "" {
		t.Error("unknown scenario empty")
	}
}

// The foreign module (scenario A) must cost more than the native task,
// but only by a small fixed overhead — the paper's Figure 13.
func TestForeignOverheadSmallButPositive(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	prof := machine.IntelParagon()
	for _, p := range []int{8, 16, 32} {
		native, err := ReplayCoupled(pr, model, prof, p, false, ScenarioA)
		if err != nil {
			t.Fatal(err)
		}
		frn, err := ReplayCoupled(pr, model, prof, p, true, ScenarioA)
		if err != nil {
			t.Fatal(err)
		}
		if frn.Ledger.Total <= native.Ledger.Total {
			t.Errorf("p=%d: foreign (%g) not slower than native (%g)",
				p, frn.Ledger.Total, native.Ledger.Total)
		}
		overhead := frn.Ledger.Total - native.Ledger.Total
		if overhead > 0.15*native.Ledger.Total {
			t.Errorf("p=%d: foreign overhead %.1f%% not small",
				p, 100*overhead/native.Ledger.Total)
		}
		if frn.CouplingSeconds <= native.CouplingSeconds {
			t.Errorf("p=%d: coupling seconds %g <= native %g",
				p, frn.CouplingSeconds, native.CouplingSeconds)
		}
	}
}

// Scenario ordering: A (interface node) costs at least B (direct), which
// costs at least C (variable to variable).
func TestScenarioOrdering(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	prof := machine.IntelParagon()
	a, err := ReplayCoupled(pr, model, prof, 32, true, ScenarioA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayCoupled(pr, model, prof, 32, true, ScenarioB)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReplayCoupled(pr, model, prof, 32, true, ScenarioC)
	if err != nil {
		t.Fatal(err)
	}
	if !(a.CouplingSeconds >= b.CouplingSeconds && b.CouplingSeconds >= c.CouplingSeconds) {
		t.Errorf("scenario coupling order violated: A=%g B=%g C=%g",
			a.CouplingSeconds, b.CouplingSeconds, c.CouplingSeconds)
	}
	// Scenario C equals the native path.
	native, err := ReplayCoupled(pr, model, prof, 32, false, ScenarioA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Ledger.Total-native.Ledger.Total) > 1e-9*native.Ledger.Total {
		t.Errorf("scenario C (%g) != native (%g)", c.Ledger.Total, native.Ledger.Total)
	}
}

// The coupled ledger must contain PopExp time.
func TestCoupledLedgerHasPopExp(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	res, err := ReplayCoupled(pr, model, machine.CrayT3E(), 16, true, ScenarioA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.ByCat[vm.CatPopExp] <= 0 {
		t.Error("no PopExp time in ledger")
	}
	if res.Ledger.ByCat[vm.CatChemistry] <= 0 {
		t.Error("no chemistry time in ledger")
	}
}

// The Fx optimal allocation must never lose to the fixed heuristic, must
// partition exactly, and must respect the 1-input/1-output layout.
func TestAutoGroups(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	prof := machine.IntelParagon()
	for _, p := range []int{8, 16, 32, 64} {
		og, err := AutoGroups(pr, model, prof, p)
		if err != nil {
			t.Fatal(err)
		}
		if og.Input != 1 || og.Output != 1 {
			t.Errorf("p=%d: I/O groups %+v", p, og)
		}
		if og.Input+og.Output+og.Compute+og.PopExp != p {
			t.Errorf("p=%d: groups %+v do not sum to p", p, og)
		}
		ores, err := ReplayCoupledGroups(pr, model, prof, og, true, ScenarioA)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := GroupsFor(p)
		if err != nil {
			t.Fatal(err)
		}
		hres, err := ReplayCoupledGroups(pr, model, prof, hg, true, ScenarioA)
		if err != nil {
			t.Fatal(err)
		}
		// The mapping optimises the modelled steady-state bottleneck;
		// on this short (2-hour) trace fill/drain effects can let the
		// heuristic edge ahead by a few percent, but the optimal
		// allocation must never be badly worse. (On the real 24-hour
		// LA trace the optimal allocation wins at every P; see
		// TestAutoGroupsWinOnRealTrace and the allocation ablation.)
		if ores.Ledger.Total > hres.Ledger.Total*1.05 {
			t.Errorf("p=%d: optimal allocation %g much slower than heuristic %g",
				p, ores.Ledger.Total, hres.Ledger.Total)
		}
	}
	if _, err := AutoGroups(pr, model, prof, 3); err == nil {
		t.Error("3 nodes accepted")
	}
}

func TestReplayCoupledGroupsValidation(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	bad := []CoupledGroups{
		{Input: 2, Output: 1, Compute: 4, PopExp: 1},
		{Input: 1, Output: 1, Compute: 0, PopExp: 1},
		{Input: 1, Output: 1, Compute: 4, PopExp: 0},
	}
	for i, g := range bad {
		if _, err := ReplayCoupledGroups(pr, model, machine.CrayT3E(), g, true, ScenarioA); err == nil {
			t.Errorf("case %d: bad groups accepted", i)
		}
	}
}

func TestCoupledTimeline(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	res, err := ReplayCoupled(pr, model, machine.IntelParagon(), 16, true, ScenarioA)
	if err != nil {
		t.Fatal(err)
	}
	// 4 stages per hour.
	if want := 4 * len(pr.Trace().Hours); len(res.Timeline) != want {
		t.Fatalf("timeline has %d intervals, want %d", len(res.Timeline), want)
	}
	for _, iv := range res.Timeline {
		if iv.End < iv.Start {
			t.Errorf("interval %v runs backwards", iv)
		}
	}
	// The schedule releases PopExp for hour h only once hour h's compute
	// stage (including the gather) has finished.
	byStage := map[string]map[int]core.StageInterval{}
	for _, iv := range res.Timeline {
		if byStage[iv.Stage] == nil {
			byStage[iv.Stage] = map[int]core.StageInterval{}
		}
		byStage[iv.Stage][iv.Hour] = iv
	}
	for h := range byStage["popexp"] {
		if byStage["popexp"][h].Start < byStage["compute"][h].End-1e-12 {
			t.Errorf("hour %d: popexp started before compute finished", h)
		}
	}
}

func TestReplayCoupledErrors(t *testing.T) {
	pr := miniPricer(t)
	model := testModel(t)
	if _, err := ReplayCoupled(pr, model, machine.CrayT3E(), 3, true, ScenarioA); err == nil {
		t.Error("3 nodes accepted")
	}
	// A coupled replay needs a Pricer, and an invalid trace has none.
	if _, err := core.NewPricer(&core.Trace{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

// End-to-end: the real Coupler drives real PVM tasks and produces the
// same exposure as the serial model applied to the same snapshots.
func TestCouplerEndToEnd(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, Hours: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t)
	pop, err := popexp.SyntheticPopulation(ds.Grid(), 20e3, 20e3, 9e3, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoupler(model, pop, ds.Shape.Species, ds.Shape.Layers, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ProcessHour(res.Final)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := model.ComputeHour(res.Final, ds.Shape.Species, ds.Shape.Layers, pop)
	if err != nil {
		t.Fatal(err)
	}
	for co := range want.Dose {
		for s := range want.Dose[co] {
			if math.Abs(got.Dose[co][s]-want.Dose[co][s]) > 1e-9*want.Dose[co][s] {
				t.Errorf("coupled dose[%d][%d] = %g, serial %g", co, s, got.Dose[co][s], want.Dose[co][s])
			}
		}
	}
	stats := c.Stats()
	if stats.MsgsSent == 0 || stats.BytesSent == 0 {
		t.Error("no traffic crossed the coupling boundary")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessHour(res.Final); err == nil {
		t.Error("ProcessHour after Stop accepted")
	}
	if err := c.Stop(); err != nil {
		t.Error("second Stop errored")
	}
	if _, err := NewCoupler(model, pop, 35, 5, 0); err == nil {
		t.Error("zero workers accepted")
	}
}
