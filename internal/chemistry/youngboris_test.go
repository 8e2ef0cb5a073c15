package chemistry

import (
	"math"
	"testing"
	"testing/quick"

	"airshed/internal/species"
)

// constRate is a fixed rate constant for synthetic test mechanisms.
type constRate float64

func (c constRate) K(_, _ float64) float64 { return float64(c) }

// linearDecay builds the mechanism A -> B with rate k.
func linearDecay(t *testing.T, k float64) *species.Mechanism {
	t.Helper()
	m, err := species.NewMechanism(
		[]species.Spec{{Name: "A"}, {Name: "B"}},
		[]species.Reaction{{
			Label: "A->B", Reactants: []int{0},
			Products: []species.Term{{Species: 1, Yield: 1}},
			Rate:     constRate(k),
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newIntegrator(t *testing.T, m *species.Mechanism) *Integrator {
	t.Helper()
	in, err := NewIntegrator(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.StiffThreshold = 0 },
		func(c *Config) { c.RelTol = 0 },
		func(c *Config) { c.AbsTol = -1 },
		func(c *Config) { c.InitialDt = 0 },
		func(c *Config) { c.MinDt = 0 },
		func(c *Config) { c.MaxDt = 0 },
		func(c *Config) { c.MinDt = 10; c.MaxDt = 1 },
		func(c *Config) { c.MaxCorrector = 0 },
		func(c *Config) { c.Floor = -1 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Error("default config invalid")
	}
}

// Exponential decay has the exact solution A(t) = A0 * exp(-k t); the
// hybrid integrator must track it within tolerance in both the non-stiff
// and the stiff regime.
func TestExponentialDecayAccuracy(t *testing.T) {
	for _, k := range []float64{0.01, 1.0, 100.0} {
		m := linearDecay(t, k)
		in := newIntegrator(t, m)
		c := []float64{1, 0}
		total := 3.0 / k // integrate to ~5% remaining
		w, err := in.Integrate(c, total, 298, 0)
		if err != nil {
			t.Fatalf("k=%g: %v", k, err)
		}
		want := math.Exp(-k * total)
		if math.Abs(c[0]-want)/want > 0.02 {
			t.Errorf("k=%g: A = %g, want %g (rel err %.3f)", k, c[0], want, math.Abs(c[0]-want)/want)
		}
		// Mass conservation: A + B == A0 for this mechanism.
		if math.Abs(c[0]+c[1]-1) > 1e-6 {
			t.Errorf("k=%g: A+B = %g, want 1", k, c[0]+c[1])
		}
		if w.Substeps == 0 || w.Evals == 0 {
			t.Errorf("k=%g: no work recorded: %+v", k, w)
		}
	}
}

// A stiff source-sink system relaxes to the steady state P/L; the stiff
// branch of the hybrid scheme must land there without needing L*dt << 1.
func TestStiffSteadyState(t *testing.T) {
	// S -> A (slow, k1=1e-2), A -> (fast, k2=1e4).
	m, err := species.NewMechanism(
		[]species.Spec{{Name: "S"}, {Name: "A"}},
		[]species.Reaction{
			{Reactants: []int{0}, Products: []species.Term{{Species: 0, Yield: 1}, {Species: 1, Yield: 1}},
				Rate: constRate(1e-2)},
			{Reactants: []int{1}, Rate: constRate(1e4)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := newIntegrator(t, m)
	c := []float64{1, 0}
	if _, err := in.Integrate(c, 10, 298, 0); err != nil {
		t.Fatal(err)
	}
	// Steady state: [A] = k1*[S]/k2 = 1e-6. S is held constant by the
	// self-regenerating reaction.
	want := 1e-6
	if math.Abs(c[1]-want)/want > 0.05 {
		t.Errorf("[A] = %g, want steady state %g", c[1], want)
	}
	if math.Abs(c[0]-1) > 1e-6 {
		t.Errorf("[S] = %g, want 1", c[0])
	}
}

// Positivity: no initial condition may integrate to negative values.
func TestPositivityQuick(t *testing.T) {
	m := species.StandardMechanism()
	in := newIntegrator(t, m)
	f := func(seed uint16) bool {
		c := m.Backgrounds()
		// Perturb concentrations deterministically from the seed.
		for i := range c {
			c[i] *= 1 + 0.5*math.Sin(float64(seed)*float64(i+1))
			if c[i] < 0 {
				c[i] = 0
			}
		}
		if _, err := in.Integrate(c, 10, 298, 0.8); err != nil {
			return false
		}
		for _, v := range c {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The NO/NO2/O3 photostationary state: under constant sunlight with the
// inorganic core only, the Leighton ratio J[NO2] ≈ k[NO][O3] must hold.
func TestPhotostationaryState(t *testing.T) {
	m := species.StandardMechanism()
	in := newIntegrator(t, m)
	c := make([]float64, m.N())
	iNO, iNO2, iO3 := m.MustIndex("NO"), m.MustIndex("NO2"), m.MustIndex("O3")
	c[iNO] = 0.01
	c[iNO2] = 0.01
	c[iO3] = 0.05
	sun := 1.0
	if _, err := in.Integrate(c, 30, 298, sun); err != nil {
		t.Fatal(err)
	}
	j := species.Photolysis{JMax: 0.53}.K(298, sun)
	k := species.Arrhenius{A: 2.64e3, ER: 1370}.K(298, sun)
	lhs := j * c[iNO2]
	rhs := k * c[iNO] * c[iO3]
	if lhs <= 0 || rhs <= 0 {
		t.Fatalf("degenerate state: lhs=%g rhs=%g", lhs, rhs)
	}
	ratio := lhs / rhs
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("Leighton ratio = %.3f, want ~1 (photostationary state)", ratio)
	}
}

// Against a brute-force reference: tiny-step explicit Euler.
func TestAgainstExplicitReference(t *testing.T) {
	m, err := species.NewMechanism(
		[]species.Spec{{Name: "A"}, {Name: "B"}, {Name: "C"}},
		[]species.Reaction{
			{Reactants: []int{0, 1}, Products: []species.Term{{Species: 2, Yield: 1}},
				Rate: constRate(5)},
			{Reactants: []int{2}, Products: []species.Term{{Species: 0, Yield: 1}, {Species: 1, Yield: 1}},
				Rate: constRate(0.7)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := newIntegrator(t, m)
	c := []float64{0.8, 0.5, 0.0}
	total := 5.0
	if _, err := in.Integrate(c, total, 298, 0); err != nil {
		t.Fatal(err)
	}

	// Reference: explicit Euler with dt = 1e-4.
	ref := []float64{0.8, 0.5, 0.0}
	k := make([]float64, 2)
	m.RateConstants(298, 0, k)
	P := make([]float64, 3)
	L := make([]float64, 3)
	h := 1e-4
	for step := 0; step < int(total/h); step++ {
		m.ProdLoss(ref, k, P, L)
		for i := range ref {
			ref[i] += h * (P[i] - L[i]*ref[i])
		}
	}
	for i := range c {
		if math.Abs(c[i]-ref[i]) > 2e-3 {
			t.Errorf("species %d: hybrid %g vs reference %g", i, c[i], ref[i])
		}
	}
}

func TestIntegrateErrors(t *testing.T) {
	m := linearDecay(t, 1)
	in := newIntegrator(t, m)
	if _, err := in.Integrate([]float64{1}, 1, 298, 0); err == nil {
		t.Error("wrong-length vector accepted")
	}
	if _, err := in.Integrate([]float64{1, 0}, -1, 298, 0); err == nil {
		t.Error("negative interval accepted")
	}
	if w, err := in.Integrate([]float64{1, 0}, 0, 298, 0); err != nil || w.Substeps != 0 {
		t.Errorf("zero interval: w=%+v err=%v", w, err)
	}
}

// Work must grow with integration length.
func TestWorkScalesWithInterval(t *testing.T) {
	m := species.StandardMechanism()
	inShort := newIntegrator(t, m)
	inLong := newIntegrator(t, m)
	cs := m.Backgrounds()
	cl := m.Backgrounds()
	ws, err := inShort.Integrate(cs, 5, 298, 1)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := inLong.Integrate(cl, 60, 298, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Evals <= ws.Evals {
		t.Errorf("longer integration did less work: %d vs %d evals", wl.Evals, ws.Evals)
	}
}

func TestResetStep(t *testing.T) {
	m := species.StandardMechanism()
	in := newIntegrator(t, m)
	c := m.Backgrounds()
	if _, err := in.Integrate(c, 60, 298, 1); err != nil {
		t.Fatal(err)
	}
	in.ResetStep()
	if in.dt != in.cfg.InitialDt {
		t.Errorf("ResetStep left dt = %g", in.dt)
	}
}
