package species

import (
	"testing"
)

func TestAuditDetectsImbalance(t *testing.T) {
	// A -> B where A carries nitrogen and B does not: 1 N lost.
	m, err := NewMechanism(
		[]Spec{{Name: "A"}, {Name: "B"}},
		[]Reaction{{Label: "A->B", Reactants: []int{0},
			Products: []Term{{Species: 1, Yield: 1}}, Rate: constRate(1)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	comp := Composition{"A": {"N": 1}}
	ims := m.AuditElements(comp, 1e-9)
	if len(ims) != 1 {
		t.Fatalf("got %d imbalances, want 1: %v", len(ims), ims)
	}
	if ims[0].Element != "N" || ims[0].In != 1 || ims[0].Out != 0 || ims[0].Delta() != -1 {
		t.Errorf("imbalance: %+v", ims[0])
	}
	if ims[0].String() == "" {
		t.Error("empty imbalance string")
	}
}

func TestAuditBalancedReaction(t *testing.T) {
	// 2-reactant, fractional-yield balance: A + B -> 0.5 C + 0.5 D with
	// each product carrying 2 N.
	m, err := NewMechanism(
		[]Spec{{Name: "A"}, {Name: "B"}, {Name: "C"}, {Name: "D"}},
		[]Reaction{{Label: "bal", Reactants: []int{0, 1},
			Products: []Term{{Species: 2, Yield: 0.5}, {Species: 3, Yield: 0.5}},
			Rate:     constRate(1)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	comp := Composition{
		"A": {"N": 1}, "B": {"N": 1},
		"C": {"N": 2}, "D": {"N": 2},
	}
	if ims := m.AuditElements(comp, 1e-9); len(ims) != 0 {
		t.Errorf("balanced reaction flagged: %v", ims)
	}
}

// The standard mechanism must conserve sulfur exactly: SO2 -> SULF -> ASO4
// is a closed chain.
func TestStandardMechanismConservesSulfur(t *testing.T) {
	m := StandardMechanism()
	comp := StandardComposition()
	for _, im := range m.AuditElements(comp, 1e-9) {
		if im.Element == "S" {
			t.Errorf("sulfur leak: %s", im)
		}
	}
}

// Nitrogen conservation in the standard mechanism: every imbalance must be
// a documented lumping compromise, and the net NOy leak per reaction must
// be small (no reaction silently destroys or creates a full nitrogen).
func TestStandardMechanismNitrogenAudit(t *testing.T) {
	m := StandardMechanism()
	comp := StandardComposition()
	for _, im := range m.AuditElements(comp, 1e-9) {
		if im.Element != "N" {
			continue
		}
		if KnownNitrogenLeaks[im.Reaction] {
			continue
		}
		if d := im.Delta(); d < -1.0-1e-9 || d > 1e-9 {
			t.Errorf("undocumented nitrogen creation or multi-N destruction: %s", im)
		}
		// Every remaining leak must involve an operator species
		// (XO2N's NTR production path is balanced; leaks come from
		// radical-operator lumping). Just report them for audit
		// visibility in -v runs.
		t.Logf("lumping leak (expected for a condensed mechanism): %s", im)
	}
}

func TestStandardCompositionCoversNOy(t *testing.T) {
	m := StandardMechanism()
	comp := StandardComposition()
	for _, name := range []string{"NO", "NO2", "NO3", "N2O5", "HONO", "HNO3", "PAN", "PNA", "NTR"} {
		if m.Index(name) < 0 {
			t.Errorf("mechanism lacks %s", name)
		}
		if comp[name]["N"] <= 0 {
			t.Errorf("composition lacks nitrogen for %s", name)
		}
	}
	if comp["N2O5"]["N"] != 2 {
		t.Error("N2O5 must carry 2 N")
	}
}
