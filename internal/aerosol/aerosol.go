// Package aerosol implements the aerosol step that runs at the end of
// every chemistry phase of the Airshed model. The computation itself is
// cheap ("the aerosol computation consumes a negligible portion of the
// total computation time"), but in the paper's implementation it cannot be
// parallelised and therefore runs replicated on every node — which is what
// forces the expensive D_Chem -> D_Repl redistribution of the
// concentration array and the D_Repl -> D_Trans local copy afterwards.
//
// The model here is a bulk inorganic equilibrium: gas-phase sulfuric acid
// (SULF) condenses onto the aerosol sulfate reservoir (ASO4) with a
// temperature-dependent efficiency, and a small irreversible nitrate
// uptake moves HNO3 into the (lumped) aerosol phase. The step is globally
// coupled through a domain-wide condensation-sink normalisation, which is
// the property that makes it hard to parallelise: every cell's update
// depends on a global aggregate.
package aerosol

import (
	"fmt"
	"math"

	"airshed/internal/species"
)

// Model is the replicated aerosol computation.
type Model struct {
	mech  *species.Mechanism
	iSULF int
	iASO4 int
	iHNO3 int

	// CondBase is the base condensation fraction per step at 298 K.
	CondBase float64
	// NitrateUptake is the per-step fractional HNO3 -> aerosol transfer.
	NitrateUptake float64
}

// New creates the aerosol model for a mechanism containing SULF, ASO4 and
// HNO3.
func New(mech *species.Mechanism) (*Model, error) {
	m := &Model{
		mech:          mech,
		iSULF:         mech.Index("SULF"),
		iASO4:         mech.Index("ASO4"),
		iHNO3:         mech.Index("HNO3"),
		CondBase:      0.35,
		NitrateUptake: 0.02,
	}
	if m.iSULF < 0 || m.iASO4 < 0 || m.iHNO3 < 0 {
		return nil, fmt.Errorf("aerosol: mechanism lacks SULF/ASO4/HNO3")
	}
	return m, nil
}

// Step advances the aerosol state of the whole replicated concentration
// array conc (canonical layout A[s + ns*(l + nl*c)]) for one model step at
// the given mean temperature. It returns the floating point work units
// performed.
//
// The update is deliberately global: the condensation efficiency of every
// cell is normalised by the domain total aerosol loading (a condensation
// sink), so the computation cannot be decomposed by cell without a global
// reduction — the paper's justification for replicating it.
func (m *Model) Step(conc []float64, ns, nl, ncells int, tempK float64) (float64, error) {
	if len(conc) != ns*nl*ncells {
		return 0, fmt.Errorf("aerosol: array has %d values, want %d", len(conc), ns*nl*ncells)
	}
	if ns <= m.iASO4 || ns <= m.iSULF || ns <= m.iHNO3 {
		return 0, fmt.Errorf("aerosol: species dimension %d too small", ns)
	}
	// Pass 1: global condensation sink (total existing sulfate).
	var totalASO4 float64
	for c := 0; c < ncells; c++ {
		for l := 0; l < nl; l++ {
			totalASO4 += conc[m.iASO4+ns*(l+nl*c)]
		}
	}
	mean := totalASO4 / float64(nl*ncells)
	// Pass 2: condensation with sink-enhanced efficiency.
	eff := m.CondBase * math.Exp((298-tempK)/40)
	if eff > 0.95 {
		eff = 0.95
	}
	for c := 0; c < ncells; c++ {
		for l := 0; l < nl; l++ {
			base := ns * (l + nl*c)
			sulf := conc[m.iSULF+base]
			aso4 := conc[m.iASO4+base]
			// Cells with above-average aerosol condense faster
			// (more surface area), normalised by the global mean.
			local := eff
			if mean > 0 {
				local *= 0.5 + 0.5*math.Min(aso4/mean, 2.0)
			}
			if local > 0.98 {
				local = 0.98
			}
			moved := sulf * local
			conc[m.iSULF+base] = sulf - moved
			conc[m.iASO4+base] = aso4 + moved
			// Irreversible nitrate uptake.
			hno3 := conc[m.iHNO3+base]
			conc[m.iHNO3+base] = hno3 * (1 - m.NitrateUptake)
		}
	}
	// ~9 flops per (cell, layer) in each pass.
	return float64(2 * 9 * nl * ncells), nil
}
