package chemistry

import (
	"math"
	"testing"

	"airshed/internal/species"
)

func newOperator(t *testing.T) *Operator {
	t.Helper()
	op, err := NewOperator(species.StandardMechanism(), StandardLayers(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// stdEnv builds a daytime urban environment.
func stdEnv(op *Operator) *CellEnv {
	nl := op.geo.Layers()
	ns := op.mech.N()
	temp := make([]float64, nl)
	for l := range temp {
		temp[l] = 298 - 2*float64(l)
	}
	env := &CellEnv{
		TempK: temp,
		Sun:   0.9,
		Vert: &VerticalEnv{
			Kz:   make([]float64, nl-1),
			VDep: make([]float64, ns),
			Emis: make([]float64, ns),
		},
	}
	for i := range env.Vert.Kz {
		env.Vert.Kz[i] = 40
	}
	return env
}

// column builds a background column for the operator's mechanism.
func column(op *Operator) []float64 {
	ns := op.mech.N()
	nl := op.geo.Layers()
	conc := make([]float64, ns*nl)
	bg := op.mech.Backgrounds()
	for l := 0; l < nl; l++ {
		copy(conc[ns*l:ns*(l+1)], bg)
	}
	return conc
}

func TestOperatorApply(t *testing.T) {
	op := newOperator(t)
	conc := column(op)
	env := stdEnv(op)
	w, err := op.Apply(conc, env, 600)
	if err != nil {
		t.Fatal(err)
	}
	if w.Chem.Evals == 0 || w.VertFlops == 0 {
		t.Errorf("no work recorded: %+v", w)
	}
	for i, v := range conc {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("conc[%d] = %g after Apply", i, v)
		}
	}
}

// Daytime photochemistry with NOx + VOC emissions must produce ozone above
// background in the ground layer — the smog formation the Airshed model
// exists to predict.
func TestOzoneFormation(t *testing.T) {
	op := newOperator(t)
	m := op.mech
	ns := m.N()
	conc := column(op)
	env := stdEnv(op)
	// Urban morning emissions: NOx and VOCs.
	env.Vert.Emis[m.MustIndex("NO")] = 2e-3
	env.Vert.Emis[m.MustIndex("NO2")] = 4e-4
	env.Vert.Emis[m.MustIndex("OLE")] = 1e-3
	env.Vert.Emis[m.MustIndex("PAR")] = 8e-3
	env.Vert.Emis[m.MustIndex("FORM")] = 5e-4
	iO3 := m.MustIndex("O3")
	before := conc[iO3]
	// Simulate 3 hours of sunlit chemistry in 10-minute steps.
	for step := 0; step < 18; step++ {
		if _, err := op.Apply(conc, env, 600); err != nil {
			t.Fatal(err)
		}
	}
	after := conc[iO3]
	if after <= before*1.1 {
		t.Errorf("no photochemical ozone production: %g -> %g ppm", before, after)
	}
	// Sanity: ozone stays below absurd levels (< 1 ppm).
	for l := 0; l < op.geo.Layers(); l++ {
		v := conc[iO3+ns*l]
		if v > 1 {
			t.Errorf("layer %d ozone %g ppm is unphysical", l, v)
		}
	}
}

// Nighttime: no photolysis, NO titrates O3 away.
func TestNighttimeTitration(t *testing.T) {
	op := newOperator(t)
	m := op.mech
	conc := column(op)
	env := stdEnv(op)
	env.Sun = 0
	env.Vert.Emis[m.MustIndex("NO")] = 5e-3
	iO3 := m.MustIndex("O3")
	before := conc[iO3]
	for step := 0; step < 12; step++ {
		if _, err := op.Apply(conc, env, 600); err != nil {
			t.Fatal(err)
		}
	}
	if conc[iO3] >= before {
		t.Errorf("NO titration did not deplete ozone at night: %g -> %g", before, conc[iO3])
	}
}

func TestApplyErrors(t *testing.T) {
	op := newOperator(t)
	env := stdEnv(op)
	if _, err := op.Apply(make([]float64, 3), env, 600); err == nil {
		t.Error("short column accepted")
	}
	conc := column(op)
	if _, err := op.Apply(conc, env, 0); err == nil {
		t.Error("zero dt accepted")
	}
	badEnv := stdEnv(op)
	badEnv.TempK = badEnv.TempK[:2]
	if _, err := op.Apply(conc, badEnv, 600); err == nil {
		t.Error("short TempK accepted")
	}
}

func TestCellWorkAccumulation(t *testing.T) {
	a := CellWork{Chem: Work{Substeps: 2, Rejected: 1, Evals: 5}, VertFlops: 10}
	a.Chem.Add(Work{Substeps: 3, Evals: 7})
	if a.Chem.Substeps != 5 || a.Chem.Rejected != 1 || a.Chem.Evals != 12 {
		t.Errorf("Add result: %+v", a)
	}
	m := species.StandardMechanism()
	f1 := a.Flops(m, 1)
	f3 := a.Flops(m, 3)
	if f1 <= 0 || math.Abs(f3-3*f1) > 1e-9 {
		t.Errorf("Flops scaling broken: %g, %g", f1, f3)
	}
}

// Determinism: two identical operators produce bit-identical columns.
func TestOperatorDeterminism(t *testing.T) {
	run := func() []float64 {
		op := newOperator(t)
		conc := column(op)
		env := stdEnv(op)
		env.Vert.Emis[op.mech.MustIndex("NO")] = 1e-3
		for step := 0; step < 6; step++ {
			if _, err := op.Apply(conc, env, 600); err != nil {
				t.Fatal(err)
			}
		}
		return conc
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
