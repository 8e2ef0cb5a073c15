package chemistry

import (
	"math"
	"testing"
)

func stdGeo(t *testing.T) *ColumnGeometry {
	t.Helper()
	return StandardLayers()
}

func TestColumnGeometry(t *testing.T) {
	if _, err := NewColumnGeometry(nil); err == nil {
		t.Error("empty layer list accepted")
	}
	if _, err := NewColumnGeometry([]float64{100, 0, 100}); err == nil {
		t.Error("zero-thickness layer accepted")
	}
	g := stdGeo(t)
	if g.Layers() != 5 {
		t.Errorf("standard layers = %d, want 5 (paper data sets)", g.Layers())
	}
	wantDepth := 38.5 + 100 + 200 + 300 + 500
	if depth := columnDepth(g); math.Abs(depth-wantDepth) > 1e-9 {
		t.Errorf("depth = %g, want %g", depth, wantDepth)
	}
}

// columnDepth is the total column depth in metres.
func columnDepth(g *ColumnGeometry) float64 {
	total := 0.0
	for _, d := range g.Dz {
		total += d
	}
	return total
}

// uniformEnv builds a VerticalEnv for ns species with constant Kz and no
// deposition or emission.
func uniformEnv(geo *ColumnGeometry, ns int, kz float64) *VerticalEnv {
	env := &VerticalEnv{
		Kz:   make([]float64, geo.Layers()-1),
		VDep: make([]float64, ns),
		Emis: make([]float64, ns),
	}
	for i := range env.Kz {
		env.Kz[i] = kz
	}
	return env
}

// Diffusion with no sources or sinks conserves column mass (sum of
// concentration times layer thickness).
func TestDiffusionConservesMass(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	ns := 3
	conc := make([]float64, ns*geo.Layers())
	// A sharp profile: everything in the ground layer.
	for s := 0; s < ns; s++ {
		conc[s] = float64(s + 1)
	}
	mass0 := columnMass(conc, ns, geo)
	env := uniformEnv(geo, ns, 50)
	for step := 0; step < 20; step++ {
		if _, err := vs.Step(conc, ns, env, 300); err != nil {
			t.Fatal(err)
		}
	}
	mass1 := columnMass(conc, ns, geo)
	for s := 0; s < ns; s++ {
		if math.Abs(mass1[s]-mass0[s])/mass0[s] > 1e-9 {
			t.Errorf("species %d: mass %g -> %g", s, mass0[s], mass1[s])
		}
	}
}

// Strong diffusion must drive the column towards a well-mixed profile.
func TestDiffusionMixes(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	conc := make([]float64, geo.Layers())
	conc[0] = 10
	env := uniformEnv(geo, 1, 500)
	for step := 0; step < 500; step++ {
		if _, err := vs.Step(conc, 1, env, 600); err != nil {
			t.Fatal(err)
		}
	}
	// Well-mixed: every layer equals total mass / depth.
	want := 10 * geo.Dz[0] / columnDepth(geo)
	for l := 0; l < geo.Layers(); l++ {
		if math.Abs(conc[l]-want)/want > 0.01 {
			t.Errorf("layer %d: %g, want ~%g", l, conc[l], want)
		}
	}
}

// Deposition removes mass monotonically; emission adds it.
func TestDepositionAndEmission(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)

	conc := []float64{1, 1, 1, 1, 1}
	env := uniformEnv(geo, 1, 50)
	env.VDep[0] = 0.01
	prev := columnMass(conc, 1, geo)[0]
	for step := 0; step < 10; step++ {
		if _, err := vs.Step(conc, 1, env, 600); err != nil {
			t.Fatal(err)
		}
		m := columnMass(conc, 1, geo)[0]
		if m >= prev {
			t.Fatalf("step %d: deposition did not remove mass (%g -> %g)", step, prev, m)
		}
		prev = m
	}

	conc2 := make([]float64, geo.Layers())
	env2 := uniformEnv(geo, 1, 50)
	env2.Emis[0] = 0.05
	if _, err := vs.Step(conc2, 1, env2, 600); err != nil {
		t.Fatal(err)
	}
	gained := columnMass(conc2, 1, geo)[0]
	want := 0.05 * 600 // flux * dt
	if math.Abs(gained-want)/want > 1e-9 {
		t.Errorf("emission added %g, want %g", gained, want)
	}
}

// Gravitational settling moves mass monotonically downward; with no
// deposition the only loss is the ground flux, so mass decreases exactly
// by what lands on the surface.
func TestGravitationalSettling(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	conc := make([]float64, geo.Layers())
	conc[geo.Layers()-1] = 1.0       // all aerosol aloft
	env := uniformEnv(geo, 1, 0.001) // negligible diffusion
	env.VSettle = []float64{0.02}
	centerBefore := massCenter(conc, geo)
	for step := 0; step < 10; step++ {
		if _, err := vs.Step(conc, 1, env, 600); err != nil {
			t.Fatal(err)
		}
	}
	centerAfter := massCenter(conc, geo)
	if centerAfter >= centerBefore {
		t.Errorf("settling did not lower the mass centre: %g -> %g m", centerBefore, centerAfter)
	}
	// Ground layer must have gained material.
	if conc[0] <= 0 {
		t.Error("nothing settled into the ground layer")
	}
}

func TestSettlingGroundRemoval(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	conc := []float64{1, 0, 0, 0, 0} // all in the ground layer
	env := uniformEnv(geo, 1, 0.001)
	env.VSettle = []float64{0.05}
	prev := columnMass(conc, 1, geo)[0]
	for step := 0; step < 5; step++ {
		if _, err := vs.Step(conc, 1, env, 600); err != nil {
			t.Fatal(err)
		}
		m := columnMass(conc, 1, geo)[0]
		if m >= prev {
			t.Fatalf("settling to ground did not remove mass: %g -> %g", prev, m)
		}
		prev = m
	}
}

// With settling confined aloft (nothing in the ground layer yet) and a
// single implicit step, the column mass loss equals the ground flux only;
// interior settling is conservative.
func TestSettlingInteriorConservation(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	conc := make([]float64, geo.Layers())
	conc[3] = 1.0
	env := uniformEnv(geo, 1, 0.0001)
	env.VSettle = []float64{0.01}
	before := columnMass(conc, 1, geo)[0]
	if _, err := vs.Step(conc, 1, env, 60); err != nil {
		t.Fatal(err)
	}
	after := columnMass(conc, 1, geo)[0]
	groundFlux := 0.01 * conc[0] * 60 // w * c0_new * dt (implicit)
	loss := before - after
	if loss < 0 {
		t.Fatalf("mass grew under settling")
	}
	if loss > groundFlux+1e-9 {
		t.Errorf("interior settling lost mass: loss %g vs ground flux %g", loss, groundFlux)
	}
}

func TestSettlingValidation(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	conc := make([]float64, 2*geo.Layers())
	env := uniformEnv(geo, 2, 1)
	env.VSettle = []float64{0.01} // wrong length
	if _, err := vs.Step(conc, 2, env, 60); err == nil {
		t.Error("short VSettle accepted")
	}
}

func massCenter(conc []float64, geo *ColumnGeometry) float64 {
	var m, mz float64
	z := 0.0
	for l, d := range geo.Dz {
		mass := conc[l] * d
		m += mass
		mz += mass * (z + d/2)
		z += d
	}
	if m == 0 {
		return 0
	}
	return mz / m
}

func TestVerticalStepErrors(t *testing.T) {
	geo := stdGeo(t)
	vs := NewVerticalSolver(geo)
	env := uniformEnv(geo, 2, 50)
	good := make([]float64, 2*geo.Layers())
	if _, err := vs.Step(good[:3], 2, env, 60); err == nil {
		t.Error("short block accepted")
	}
	if _, err := vs.Step(good, 2, env, 0); err == nil {
		t.Error("zero dt accepted")
	}
	badKz := uniformEnv(geo, 2, 50)
	badKz.Kz = badKz.Kz[:2]
	if _, err := vs.Step(good, 2, badKz, 60); err == nil {
		t.Error("short Kz accepted")
	}
	badDep := uniformEnv(geo, 2, 50)
	badDep.VDep = badDep.VDep[:1]
	if _, err := vs.Step(good, 2, badDep, 60); err == nil {
		t.Error("short VDep accepted")
	}
}

func TestThomasSolver(t *testing.T) {
	// Solve a known 3x3 system: diag 2, off-diag -1, rhs = A*x for
	// x = (1, 2, 3).
	a := []float64{0, -1, -1}
	b := []float64{2, 2, 2}
	c := []float64{-1, -1, 0}
	x := []float64{1, 2, 3}
	d := []float64{2*1 - 2, -1 + 4 - 3, -2 + 6}
	got := make([]float64, 3)
	if err := thomas(a, b, c, d, got); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, got[i], x[i])
		}
	}
	if err := thomas(nil, nil, nil, nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if err := thomas([]float64{0}, []float64{0}, []float64{0}, []float64{1}, make([]float64, 1)); err == nil {
		t.Error("singular system accepted")
	}
}

func columnMass(conc []float64, ns int, geo *ColumnGeometry) []float64 {
	mass := make([]float64, ns)
	for l := 0; l < geo.Layers(); l++ {
		for s := 0; s < ns; s++ {
			mass[s] += conc[s+ns*l] * geo.Dz[l]
		}
	}
	return mass
}
