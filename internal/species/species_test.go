package species

import (
	"math"
	"testing"
)

// constRate is a fixed rate constant for synthetic test mechanisms.
type constRate float64

func (c constRate) K(_, _ float64) float64 { return float64(c) }

func TestNewMechanismValidation(t *testing.T) {
	good := []Spec{{Name: "A"}, {Name: "B"}}
	cases := []struct {
		name  string
		specs []Spec
		rxns  []Reaction
	}{
		{"no species", nil, nil},
		{"empty name", []Spec{{Name: ""}}, nil},
		{"duplicate name", []Spec{{Name: "A"}, {Name: "A"}}, nil},
		{"negative background", []Spec{{Name: "A", Background: -1}}, nil},
		{"no reactants", good, []Reaction{{Rate: constRate(1)}}},
		{"three reactants", good, []Reaction{{Reactants: []int{0, 0, 1}, Rate: constRate(1)}}},
		{"bad reactant index", good, []Reaction{{Reactants: []int{7}, Rate: constRate(1)}}},
		{"bad product index", good, []Reaction{{Reactants: []int{0}, Products: []Term{{9, 1}}, Rate: constRate(1)}}},
		{"negative yield", good, []Reaction{{Reactants: []int{0}, Products: []Term{{1, -1}}, Rate: constRate(1)}}},
		{"nil rate", good, []Reaction{{Reactants: []int{0}}}},
	}
	for _, c := range cases {
		if _, err := NewMechanism(c.specs, c.rxns); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewMechanism(good, []Reaction{
		{Reactants: []int{0}, Products: []Term{{1, 1}}, Rate: constRate(1)},
	}); err != nil {
		t.Errorf("valid mechanism rejected: %v", err)
	}
}

func TestArrheniusRate(t *testing.T) {
	// Pure A.
	if k := (Arrhenius{A: 5}).K(298, 0.5); k != 5 {
		t.Errorf("constant Arrhenius K = %g", k)
	}
	// Activation energy: rate must grow with temperature.
	a := Arrhenius{A: 1e3, ER: 1000}
	if a.K(310, 0) <= a.K(290, 0) {
		t.Error("positive-ER rate does not grow with T")
	}
	want := 1e3 * math.Exp(-1000.0/298.0)
	if got := a.K(298, 0); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("K(298) = %g, want %g", got, want)
	}
	// Temperature power law.
	b := Arrhenius{A: 1, B: 2}
	if got := b.K(600, 0); math.Abs(got-4) > 1e-12 {
		t.Errorf("T^2 law: K(600) = %g, want 4", got)
	}
}

func TestPhotolysisRate(t *testing.T) {
	p := Photolysis{JMax: 0.5}
	if p.K(298, 0) != 0 {
		t.Error("photolysis at night must be zero")
	}
	if p.K(298, -0.3) != 0 {
		t.Error("negative sun must clamp to zero")
	}
	if got := p.K(298, 0.5); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("K(sun=0.5) = %g, want 0.25", got)
	}
	if got := p.K(250, 1); got != 0.5 {
		t.Errorf("photolysis must not depend on T: %g", got)
	}
}

func TestIndexLookup(t *testing.T) {
	m := StandardMechanism()
	if i := m.Index("O3"); i < 0 || m.Species[i].Name != "O3" {
		t.Errorf("Index(O3) = %d", i)
	}
	if m.Index("UNOBTAINIUM") != -1 {
		t.Error("unknown species found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on unknown species did not panic")
		}
	}()
	m.MustIndex("UNOBTAINIUM")
}

func TestStandardMechanismShape(t *testing.T) {
	m := StandardMechanism()
	// The paper's concentration array is A(35, layers, nodes).
	if m.N() != 35 {
		t.Fatalf("StandardMechanism has %d species, want 35", m.N())
	}
	if len(m.Reactions) < 40 {
		t.Errorf("only %d reactions; want a condensed-mechanism-scale set", len(m.Reactions))
	}
	// Every named species must participate in at least one reaction.
	used := make([]bool, m.N())
	for _, r := range m.Reactions {
		for _, s := range r.Reactants {
			used[s] = true
		}
		for _, p := range r.Products {
			used[p.Species] = true
		}
	}
	for i, u := range used {
		if !u {
			t.Errorf("species %s participates in no reaction", m.Species[i].Name)
		}
	}
}

func TestStandardMechanismStiffnessSpread(t *testing.T) {
	// The mechanism must span many orders of magnitude in loss
	// frequencies — that's what makes the chemistry stiff and the
	// Young–Boris hybrid necessary.
	m := StandardMechanism()
	k := make([]float64, len(m.Reactions))
	m.RateConstants(298, 1.0, k)
	min, max := math.Inf(1), 0.0
	for _, v := range k {
		if v <= 0 {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min < 1e6 {
		t.Errorf("rate constant spread %g too small for a stiff mechanism", max/min)
	}
}

func TestRateConstantsBufferCheck(t *testing.T) {
	m := StandardMechanism()
	defer func() {
		if recover() == nil {
			t.Error("short buffer did not panic")
		}
	}()
	m.RateConstants(298, 1, make([]float64, 3))
}

func TestProdLossSimpleChain(t *testing.T) {
	// A -> B with k=2: P_B = 2*[A], L_A = 2.
	specs := []Spec{{Name: "A"}, {Name: "B"}}
	m, err := NewMechanism(specs, []Reaction{
		{Label: "A->B", Reactants: []int{0}, Products: []Term{{1, 1}}, Rate: constRate(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := []float64{3, 0}
	k := make([]float64, 1)
	m.RateConstants(298, 0, k)
	P := make([]float64, 2)
	L := make([]float64, 2)
	m.ProdLoss(c, k, P, L)
	if L[0] != 2 || P[0] != 0 {
		t.Errorf("A: P=%g L=%g, want 0, 2", P[0], L[0])
	}
	if P[1] != 6 || L[1] != 0 {
		t.Errorf("B: P=%g L=%g, want 6, 0", P[1], L[1])
	}
}

func TestProdLossBimolecular(t *testing.T) {
	// A + B -> C with k=1.5.
	specs := []Spec{{Name: "A"}, {Name: "B"}, {Name: "C"}}
	m, err := NewMechanism(specs, []Reaction{
		{Reactants: []int{0, 1}, Products: []Term{{2, 1}}, Rate: constRate(1.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := []float64{2, 4, 0}
	k := []float64{0}
	m.RateConstants(298, 0, k)
	P := make([]float64, 3)
	L := make([]float64, 3)
	m.ProdLoss(c, k, P, L)
	if math.Abs(L[0]-1.5*4) > 1e-15 || math.Abs(L[1]-1.5*2) > 1e-15 {
		t.Errorf("loss coefficients: %g %g", L[0], L[1])
	}
	if math.Abs(P[2]-1.5*2*4) > 1e-15 {
		t.Errorf("P_C = %g, want 12", P[2])
	}
	// Rate consistency: dA/dt == dB/dt == -dC/dt.
	dA := P[0] - L[0]*c[0]
	dB := P[1] - L[1]*c[1]
	dC := P[2] - L[2]*c[2]
	if math.Abs(dA-dB) > 1e-12 || math.Abs(dA+dC) > 1e-12 {
		t.Errorf("rates inconsistent: dA=%g dB=%g dC=%g", dA, dB, dC)
	}
}

func TestProdLossSelfReaction(t *testing.T) {
	// A + A -> B with k=1: L_A = 2k[A], rate = k[A]^2.
	specs := []Spec{{Name: "A"}, {Name: "B"}}
	m, err := NewMechanism(specs, []Reaction{
		{Reactants: []int{0, 0}, Products: []Term{{1, 1}}, Rate: constRate(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := []float64{3, 0}
	k := []float64{0}
	m.RateConstants(298, 0, k)
	P := make([]float64, 2)
	L := make([]float64, 2)
	m.ProdLoss(c, k, P, L)
	if L[0] != 6 {
		t.Errorf("L_A = %g, want 6 (2k[A])", L[0])
	}
	if P[1] != 9 {
		t.Errorf("P_B = %g, want 9 (k[A]^2)", P[1])
	}
}

func TestBackgrounds(t *testing.T) {
	m := StandardMechanism()
	c := m.Backgrounds()
	if len(c) != m.N() {
		t.Fatalf("Backgrounds length %d", len(c))
	}
	if c[m.MustIndex("O3")] != 0.04 {
		t.Errorf("O3 background = %g", c[m.MustIndex("O3")])
	}
	for i, v := range c {
		if v < 0 {
			t.Errorf("negative background for %s", m.Species[i].Name)
		}
	}
}

func TestFlopsPerProdLossPositive(t *testing.T) {
	m := StandardMechanism()
	if m.FlopsPerProdLoss() < float64(len(m.Reactions)) {
		t.Errorf("FlopsPerProdLoss = %g, implausibly small", m.FlopsPerProdLoss())
	}
}

func TestNighttimePhotolysisOff(t *testing.T) {
	m := StandardMechanism()
	k := make([]float64, len(m.Reactions))
	m.RateConstants(298, 0, k)
	for i, r := range m.Reactions {
		if _, isPhoto := r.Rate.(Photolysis); isPhoto && k[i] != 0 {
			t.Errorf("photolysis %s active at night", r.Label)
		}
	}
}
