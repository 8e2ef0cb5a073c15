package aerosol

import (
	"math"
	"testing"

	"airshed/internal/species"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(species.StandardMechanism())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildConc fills an array with backgrounds plus some gas-phase sulfate.
func buildConc(mech *species.Mechanism, nl, nc int, sulf float64) []float64 {
	ns := mech.N()
	conc := make([]float64, ns*nl*nc)
	bg := mech.Backgrounds()
	iSULF := mech.MustIndex("SULF")
	for c := 0; c < nc; c++ {
		for l := 0; l < nl; l++ {
			copy(conc[ns*(l+nl*c):ns*(l+nl*c+1)-0], bg)
			conc[iSULF+ns*(l+nl*c)] = sulf * (1 + 0.2*float64(c%3))
		}
	}
	return conc
}

func TestNewRequiresSpecies(t *testing.T) {
	bad, err := species.NewMechanism([]species.Spec{{Name: "X"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(bad); err == nil {
		t.Error("mechanism without SULF/ASO4/HNO3 accepted")
	}
	newModel(t) // must succeed for the standard mechanism
}

// The aerosol step conserves total sulfur: SULF + ASO4 unchanged.
func TestSulfurConservation(t *testing.T) {
	m := newModel(t)
	mech := species.StandardMechanism()
	ns, nl, nc := mech.N(), 5, 12
	conc := buildConc(mech, nl, nc, 1e-3)
	iSULF, iASO4 := mech.MustIndex("SULF"), mech.MustIndex("ASO4")
	sum := func() float64 {
		total := 0.0
		for c := 0; c < nc; c++ {
			for l := 0; l < nl; l++ {
				base := ns * (l + nl*c)
				total += conc[iSULF+base] + conc[iASO4+base]
			}
		}
		return total
	}
	before := sum()
	if _, err := m.Step(conc, ns, nl, nc, 295); err != nil {
		t.Fatal(err)
	}
	after := sum()
	if math.Abs(after-before)/before > 1e-12 {
		t.Errorf("sulfur not conserved: %g -> %g", before, after)
	}
}

// Condensation moves SULF into ASO4 monotonically.
func TestCondensationDirection(t *testing.T) {
	m := newModel(t)
	mech := species.StandardMechanism()
	ns, nl, nc := mech.N(), 5, 6
	conc := buildConc(mech, nl, nc, 1e-3)
	iSULF, iASO4 := mech.MustIndex("SULF"), mech.MustIndex("ASO4")
	sulfBefore := conc[iSULF]
	aso4Before := conc[iASO4]
	if _, err := m.Step(conc, ns, nl, nc, 295); err != nil {
		t.Fatal(err)
	}
	if conc[iSULF] >= sulfBefore {
		t.Error("SULF did not condense")
	}
	if conc[iASO4] <= aso4Before {
		t.Error("ASO4 did not grow")
	}
	// Nitrate uptake shrinks HNO3.
	iHNO3 := mech.MustIndex("HNO3")
	if conc[iHNO3] >= mech.Backgrounds()[iHNO3] {
		t.Error("HNO3 not taken up")
	}
}

// Colder temperatures condense more.
func TestTemperatureDependence(t *testing.T) {
	m := newModel(t)
	mech := species.StandardMechanism()
	ns, nl, nc := mech.N(), 5, 4
	warm := buildConc(mech, nl, nc, 1e-3)
	cold := buildConc(mech, nl, nc, 1e-3)
	if _, err := m.Step(warm, ns, nl, nc, 305); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(cold, ns, nl, nc, 275); err != nil {
		t.Fatal(err)
	}
	iSULF := mech.MustIndex("SULF")
	if cold[iSULF] >= warm[iSULF] {
		t.Errorf("cold did not condense more: cold %g, warm %g", cold[iSULF], warm[iSULF])
	}
}

func TestStepValidation(t *testing.T) {
	m := newModel(t)
	if _, err := m.Step(make([]float64, 7), 35, 5, 4, 295); err == nil {
		t.Error("wrong-size array accepted")
	}
	if _, err := m.Step(make([]float64, 2*1*1), 2, 1, 1, 295); err == nil {
		t.Error("species dimension smaller than indices accepted")
	}
}

func TestWorkUnits(t *testing.T) {
	m := newModel(t)
	mech := species.StandardMechanism()
	conc := buildConc(mech, 5, 10, 1e-3)
	w, err := m.Step(conc, mech.N(), 5, 10, 295)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Error("no work recorded")
	}
	// Work scales with array size.
	conc2 := buildConc(mech, 5, 20, 1e-3)
	w2, err := m.Step(conc2, mech.N(), 5, 20, 295)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w2-2*w) > 1e-9 {
		t.Errorf("work not proportional to cells: %g vs %g", w2, 2*w)
	}
}

// sulfateBurden is the domain total aerosol sulfate.
func sulfateBurden(m *Model, conc []float64, ns, nl, ncells int) float64 {
	var total float64
	for c := 0; c < ncells; c++ {
		for l := 0; l < nl; l++ {
			total += conc[m.iASO4+ns*(l+nl*c)]
		}
	}
	return total
}

func TestSulfateBurden(t *testing.T) {
	m := newModel(t)
	mech := species.StandardMechanism()
	conc := buildConc(mech, 5, 4, 1e-3)
	b := sulfateBurden(m, conc, mech.N(), 5, 4)
	if b <= 0 {
		t.Error("zero burden")
	}
	if _, err := m.Step(conc, mech.N(), 5, 4, 295); err != nil {
		t.Fatal(err)
	}
	if sulfateBurden(m, conc, mech.N(), 5, 4) <= b {
		t.Error("burden did not grow after condensation")
	}
}
