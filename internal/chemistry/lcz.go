package chemistry

import (
	"fmt"

	"airshed/internal/species"
)

// CellEnv is the meteorological forcing of one column for one outer time
// step: temperature per layer, actinic flux, and the vertical transport
// environment.
type CellEnv struct {
	// TempK holds the temperature per layer in Kelvin.
	TempK []float64
	// Sun is the normalised actinic flux in [0, 1].
	Sun float64
	// Vert is the vertical transport forcing.
	Vert *VerticalEnv
}

// Operator is the combined chemistry + vertical transport operator Lcz of
// the operator-splitting scheme c^{n+1} = Lxy(dt/2) Lcz(dt) Lxy(dt/2) c^n.
// It advances one column (one horizontal grid cell, all layers, all
// species) independently of every other column. An Operator owns scratch
// buffers and is NOT safe for concurrent use; create one per worker.
type Operator struct {
	mech  *species.Mechanism
	geo   *ColumnGeometry
	integ *Integrator
	vert  *VerticalSolver

	// rates caches the rate-constant vector per layer: temperature is a
	// per-layer hourly forcing and the actinic flux an hourly scalar, so
	// within one chemistry phase every column sees identical (T, sun)
	// per layer. One RateConstants evaluation per layer per hour then
	// serves the whole shard instead of every column recomputing the
	// Arrhenius/photolysis expressions. Values are identical by
	// construction, so results do not change.
	rates []layerRates
}

// layerRates is one cached rate-constant vector and its forcing key.
type layerRates struct {
	t, sun float64
	valid  bool
	k      []float64
}

// NewOperator builds the Lcz operator for a mechanism and column geometry.
func NewOperator(mech *species.Mechanism, geo *ColumnGeometry, cfg Config) (*Operator, error) {
	integ, err := NewIntegrator(mech, cfg)
	if err != nil {
		return nil, err
	}
	op := &Operator{
		mech:  mech,
		geo:   geo,
		integ: integ,
		vert:  NewVerticalSolver(geo),
		rates: make([]layerRates, geo.Layers()),
	}
	for l := range op.rates {
		op.rates[l].k = make([]float64, len(mech.Reactions))
	}
	return op, nil
}

// CellWork is the work performed by one Lcz application on one column.
type CellWork struct {
	Chem Work
	// VertFlops counts vertical-solver floating point work units.
	VertFlops float64
}

// Flops converts the cell work into charged floating point operations
// using the mechanism's per-evaluation cost and the calibration factor
// flopsScale (accounting for the full CIT mechanism being costlier than
// the condensed one executed here; see DESIGN.md).
func (w CellWork) Flops(mech *species.Mechanism, flopsScale float64) float64 {
	perEval := mech.FlopsPerProdLoss() + 12*float64(mech.N())
	return flopsScale * (float64(w.Chem.Evals)*perEval + w.VertFlops)
}

// Apply advances the column block conc (indexed conc[species +
// nspecies*layer], modified in place) by dtSeconds of combined chemistry
// and vertical transport under the given environment. The vertical
// operator is Strang-split around the chemistry: V(dt/2) C(dt) V(dt/2).
func (op *Operator) Apply(conc []float64, env *CellEnv, dtSeconds float64) (CellWork, error) {
	var w CellWork
	n := op.mech.N()
	nl := op.geo.Layers()
	if len(conc) != n*nl {
		return w, fmt.Errorf("chemistry: column block has %d values, want %d", len(conc), n*nl)
	}
	if len(env.TempK) != nl {
		return w, fmt.Errorf("chemistry: TempK has %d layers, want %d", len(env.TempK), nl)
	}
	if dtSeconds <= 0 {
		return w, fmt.Errorf("chemistry: non-positive dt %g", dtSeconds)
	}

	// Reset the adaptive substep so each column integrates identically
	// regardless of which columns this operator instance processed
	// before — required for results to be independent of the data
	// distribution (and therefore of the node count).
	op.integ.ResetStep()

	half := dtSeconds / 2
	fl, err := op.vert.Step(conc, n, env.Vert, half)
	if err != nil {
		return w, err
	}
	w.VertFlops += fl

	dtMin := dtSeconds / 60.0
	for l := 0; l < nl; l++ {
		lr := &op.rates[l]
		if !lr.valid || lr.t != env.TempK[l] || lr.sun != env.Sun {
			op.mech.RateConstants(env.TempK[l], env.Sun, lr.k)
			lr.t, lr.sun, lr.valid = env.TempK[l], env.Sun, true
		}
		// In place: the integrator writes the block only on commit.
		cw, err := op.integ.IntegrateWithRates(conc[n*l:n*(l+1)], dtMin, lr.k)
		if err != nil {
			return w, err
		}
		w.Chem.Add(cw)
	}

	fl, err = op.vert.Step(conc, n, env.Vert, half)
	if err != nil {
		return w, err
	}
	w.VertFlops += fl
	return w, nil
}
