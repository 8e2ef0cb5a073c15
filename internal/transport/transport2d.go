// Package transport implements the horizontal transport operator Lxy of
// the Airshed model: advection and diffusion of every species within one
// vertical layer.
//
// Airshed's defining algorithmic choice (Section 2 of the paper) is a
// 2-dimensional operator on the multiscale grid, stabilised in the spirit
// of the Streamline Upwind Petrov-Galerkin (SUPG) finite element method of
// Odman & Russell: a central discretisation plus streamline upwinding
// whose strength is the SUPG optimal parameter coth(Pe) - 1/Pe of the
// local Peclet number. The 2-D operator cannot be parallelised within a
// layer, so the transport phase parallelises only across layers — the
// scalability limit the paper analyses at length.
//
// The package also provides the 1-D operator-splitting scheme on a uniform
// grid that the paper discusses as the high-parallelism / low-efficiency
// alternative (Dabdub & Seinfeld style), used by the ablation benches.
package transport

import (
	"fmt"
	"math"

	"airshed/internal/grid"
)

// Env is the per-layer transport forcing: cell-centre velocities, the
// horizontal diffusivity, and the inflow (background) concentration used
// at open boundaries.
type Env struct {
	// U, V are cell-centre velocities in m/s, indexed by cell.
	U, V []float64
	// KH is the horizontal eddy diffusivity in m^2/s.
	KH float64
	// Inflow is the concentration carried into the domain by boundary
	// faces with inward velocity. Zero means clean-air inflow.
	Inflow float64
}

// Operator2D advances scalar fields on a multiscale grid. The operator
// owns per-face coefficient buffers rebuilt by Prepare; it is NOT safe for
// concurrent use. One operator per worker (the paper runs one layer per
// machine node).
type Operator2D struct {
	g *grid.Grid

	// Per-face coefficients, rebuilt by Prepare.
	adv   []float64 // (u.n) * face length, m^2/s
	diff  []float64 // KH * face length / centre distance, m^2/s
	alpha []float64 // SUPG upwind weight in [0, 1]
	// Per-boundary-face advective coefficient.
	badv []float64
	// Stable explicit step bound for the prepared env.
	dtMax    float64
	flux     []float64
	prepared bool
}

// New2D creates the operator for a finalized grid.
func New2D(g *grid.Grid) (*Operator2D, error) {
	if len(g.Cells) == 0 {
		return nil, fmt.Errorf("transport: grid has no cells (not finalized?)")
	}
	return &Operator2D{
		g:     g,
		adv:   make([]float64, len(g.Faces)),
		diff:  make([]float64, len(g.Faces)),
		alpha: make([]float64, len(g.Faces)),
		badv:  make([]float64, len(g.Boundary)),
		flux:  make([]float64, len(g.Cells)),
	}, nil
}

// SUPGAlpha returns the optimal streamline-upwind parameter
// coth(Pe) - 1/Pe for a local Peclet number.
func SUPGAlpha(pe float64) float64 {
	if pe < 0 {
		pe = -pe
	}
	if pe < 1e-8 {
		return 0 // pure diffusion: central weighting
	}
	if pe > 30 {
		return 1 // advection dominated: full upwind
	}
	return 1/math.Tanh(pe) - 1/pe
}

// Prepare rebuilds the face coefficients for an environment and returns
// the stable explicit substep bound in seconds.
func (op *Operator2D) Prepare(env *Env) (float64, error) {
	g := op.g
	if len(env.U) != len(g.Cells) || len(env.V) != len(g.Cells) {
		return 0, fmt.Errorf("transport: wind field has %d/%d cells, want %d", len(env.U), len(env.V), len(g.Cells))
	}
	if env.KH < 0 {
		return 0, fmt.Errorf("transport: negative diffusivity %g", env.KH)
	}
	// outSum[i] accumulates the outflow + diffusion rate of cell i for
	// the CFL bound.
	outSum := op.flux
	for i := range outSum {
		outSum[i] = 0
	}
	for fi := range g.Faces {
		f := &g.Faces[fi]
		un := 0.5 * ((env.U[f.A]+env.U[f.B])*f.NX + (env.V[f.A]+env.V[f.B])*f.NY)
		op.adv[fi] = un * f.Length
		op.diff[fi] = env.KH * f.Length / f.Dist
		pe := math.Abs(un) * f.Dist / (2*env.KH + 1e-12)
		op.alpha[fi] = SUPGAlpha(pe)
		rate := math.Abs(op.adv[fi]) + 2*op.diff[fi]
		outSum[f.A] += rate
		outSum[f.B] += rate
	}
	for bi := range g.Boundary {
		bf := &g.Boundary[bi]
		un := env.U[bf.Cell]*bf.NX + env.V[bf.Cell]*bf.NY
		op.badv[bi] = un * bf.Length
		outSum[bf.Cell] += math.Abs(op.badv[bi])
	}
	dtMax := math.Inf(1)
	for i := range g.Cells {
		if outSum[i] <= 0 {
			continue
		}
		if dt := g.Cells[i].Area() / outSum[i]; dt < dtMax {
			dtMax = dt
		}
	}
	if math.IsInf(dtMax, 1) {
		dtMax = 3600 // quiescent field: any step is stable
	}
	op.dtMax = dtMax
	op.prepared = true
	return dtMax, nil
}

// Substeps returns the number of explicit substeps Step will use for an
// outer step of dt seconds with the prepared environment (CFL safety 0.8).
func (op *Operator2D) Substeps(dt float64) int {
	if !op.prepared {
		panic("transport: Substeps before Prepare")
	}
	n := int(math.Ceil(dt / (0.8 * op.dtMax)))
	if n < 1 {
		n = 1
	}
	return n
}

// StepField advances one scalar field (length = number of cells) by dt
// seconds under the prepared environment, taking as many stable explicit
// substeps as the CFL bound requires. It returns the floating point work
// units performed.
func (op *Operator2D) StepField(c []float64, env *Env, dt float64) (float64, error) {
	g := op.g
	if !op.prepared {
		return 0, fmt.Errorf("transport: StepField before Prepare")
	}
	if len(c) != len(g.Cells) {
		return 0, fmt.Errorf("transport: field has %d cells, want %d", len(c), len(g.Cells))
	}
	if dt <= 0 {
		return 0, fmt.Errorf("transport: non-positive dt %g", dt)
	}
	return op.StepFieldN(c, env, dt, op.Substeps(dt))
}

// StepFieldN is StepField with an externally chosen substep count, used by
// the Airshed driver to run every layer with the global (worst-layer) CFL
// substep so the per-layer work is uniform — the solver advances all
// layers with one shared transport time step, as the original model does.
// nsub must be at least the layer's own CFL requirement for stability.
func (op *Operator2D) StepFieldN(c []float64, env *Env, dt float64, nsub int) (float64, error) {
	g := op.g
	if !op.prepared {
		return 0, fmt.Errorf("transport: StepFieldN before Prepare")
	}
	if len(c) != len(g.Cells) {
		return 0, fmt.Errorf("transport: field has %d cells, want %d", len(c), len(g.Cells))
	}
	if dt <= 0 {
		return 0, fmt.Errorf("transport: non-positive dt %g", dt)
	}
	if nsub < 1 {
		return 0, fmt.Errorf("transport: substep count %d", nsub)
	}
	h := dt / float64(nsub)
	for s := 0; s < nsub; s++ {
		op.substep(c, env, h)
	}
	// ~9 flops per interior face + 4 per boundary face + 2 per cell,
	// per substep.
	work := float64(nsub) * float64(9*len(g.Faces)+4*len(g.Boundary)+2*len(g.Cells))
	return work, nil
}

// substep performs one explicit flux-form update of size h seconds.
func (op *Operator2D) substep(c []float64, env *Env, h float64) {
	g := op.g
	dc := op.flux
	for i := range dc {
		dc[i] = 0
	}
	for fi := range g.Faces {
		f := &g.Faces[fi]
		// SUPG-weighted face value: central average plus streamline
		// upwinding of strength alpha towards the upwind cell.
		a := op.alpha[fi]
		if op.adv[fi] < 0 {
			a = -a
		}
		cf := 0.5*(c[f.A]+c[f.B]) + 0.5*a*(c[f.A]-c[f.B])
		flux := op.adv[fi]*cf - op.diff[fi]*(c[f.B]-c[f.A])
		dc[f.A] -= flux
		dc[f.B] += flux
	}
	for bi := range g.Boundary {
		bf := &g.Boundary[bi]
		adv := op.badv[bi]
		var flux float64
		if adv > 0 { // outflow at cell concentration
			flux = adv * c[bf.Cell]
		} else { // inflow at background concentration
			flux = adv * env.Inflow
		}
		dc[bf.Cell] -= flux
	}
	for i := range c {
		v := c[i] + h*dc[i]/g.Cells[i].Area()
		if v < 0 {
			v = 0
		}
		c[i] = v
	}
}

// Mass returns the area-weighted integral of the field over the grid.
func (op *Operator2D) Mass(c []float64) float64 {
	total := 0.0
	for i := range c {
		total += c[i] * op.g.Cells[i].Area()
	}
	return total
}
