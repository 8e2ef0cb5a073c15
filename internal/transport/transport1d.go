package transport

import (
	"fmt"
	"math"

	"airshed/internal/grid"
)

// Operator1D is the uniform-grid, dimension-split baseline transport
// scheme the paper compares Airshed's 2-D multiscale operator against:
// Lx and Ly are applied alternately as 1-dimensional upwind sweeps along
// rows and columns. Each sweep is independent per row (or column), so the
// scheme parallelises over layers AND over one grid dimension — the
// "relatively high degree of parallelism" the paper credits to uniform
// 1-D models — but it needs a uniform fine grid, which makes it less
// efficient than the multiscale operator for the same accuracy.
//
// The operator requires a uniform (level-0 only) grid.
type Operator1D struct {
	g      *grid.Grid
	nx, ny int
	sz     float64
	// index[iy*nx+ix] maps the structured position to the grid's cell
	// index.
	index []int
	row   []float64
	dtMax float64
	env   *Env
}

// New1D creates the dimension-split operator for a finalized uniform grid.
func New1D(g *grid.Grid) (*Operator1D, error) {
	if len(g.Cells) == 0 {
		return nil, fmt.Errorf("transport: grid has no cells (not finalized?)")
	}
	if g.MaxLevel() != 0 {
		return nil, fmt.Errorf("transport: the 1-D splitting operator needs a uniform grid, got max level %d", g.MaxLevel())
	}
	op := &Operator1D{
		g: g, nx: g.NX0, ny: g.NY0, sz: g.S0,
		index: make([]int, g.NX0*g.NY0),
		row:   make([]float64, maxInt(g.NX0, g.NY0)),
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		op.index[c.IY*g.NX0+c.IX] = i
	}
	return op, nil
}

// Prepare validates the environment and computes the stable substep bound.
func (op *Operator1D) Prepare(env *Env) (float64, error) {
	if len(env.U) != len(op.g.Cells) || len(env.V) != len(op.g.Cells) {
		return 0, fmt.Errorf("transport: wind field has %d/%d cells, want %d", len(env.U), len(env.V), len(op.g.Cells))
	}
	if env.KH < 0 {
		return 0, fmt.Errorf("transport: negative diffusivity %g", env.KH)
	}
	maxU := 0.0
	for i := range env.U {
		if v := math.Abs(env.U[i]); v > maxU {
			maxU = v
		}
		if v := math.Abs(env.V[i]); v > maxU {
			maxU = v
		}
	}
	rate := maxU/op.sz + 2*env.KH/(op.sz*op.sz)
	if rate <= 0 {
		op.dtMax = 3600
	} else {
		op.dtMax = 1 / rate
	}
	op.env = env
	return op.dtMax, nil
}

// Substeps returns the substep count Step will use for dt seconds.
func (op *Operator1D) Substeps(dt float64) int {
	if op.env == nil {
		panic("transport: Substeps before Prepare")
	}
	n := int(math.Ceil(dt / (0.8 * op.dtMax)))
	if n < 1 {
		n = 1
	}
	return n
}

// StepField advances one scalar field by dt seconds: alternating x and y
// upwind sweeps per substep (Strang-like LxLy / LyLx alternation to reduce
// splitting bias). Returns floating point work units.
func (op *Operator1D) StepField(c []float64, env *Env, dt float64) (float64, error) {
	if op.env == nil {
		return 0, fmt.Errorf("transport: StepField before Prepare")
	}
	if len(c) != len(op.g.Cells) {
		return 0, fmt.Errorf("transport: field has %d cells, want %d", len(c), len(op.g.Cells))
	}
	if dt <= 0 {
		return 0, fmt.Errorf("transport: non-positive dt %g", dt)
	}
	nsub := op.Substeps(dt)
	h := dt / float64(nsub)
	for s := 0; s < nsub; s++ {
		if s%2 == 0 {
			op.sweepX(c, env, h)
			op.sweepY(c, env, h)
		} else {
			op.sweepY(c, env, h)
			op.sweepX(c, env, h)
		}
	}
	return float64(nsub) * float64(2*10*op.nx*op.ny), nil
}

// sweepX applies the 1-D x-direction upwind advection-diffusion update.
func (op *Operator1D) sweepX(c []float64, env *Env, h float64) {
	for iy := 0; iy < op.ny; iy++ {
		row := op.row[:op.nx]
		for ix := 0; ix < op.nx; ix++ {
			row[ix] = c[op.index[iy*op.nx+ix]]
		}
		for ix := 0; ix < op.nx; ix++ {
			ci := op.index[iy*op.nx+ix]
			u := env.U[ci]
			// Upwind gradient with inflow boundary values.
			left, right := env.Inflow, env.Inflow
			if ix > 0 {
				left = row[ix-1]
			}
			if ix < op.nx-1 {
				right = row[ix+1]
			}
			var adv float64
			if u >= 0 {
				adv = -u * (row[ix] - left) / op.sz
			} else {
				adv = -u * (right - row[ix]) / op.sz
			}
			diff := env.KH * (left - 2*row[ix] + right) / (op.sz * op.sz)
			v := row[ix] + h*(adv+diff)
			if v < 0 {
				v = 0
			}
			c[ci] = v
		}
	}
}

// sweepY applies the 1-D y-direction update.
func (op *Operator1D) sweepY(c []float64, env *Env, h float64) {
	for ix := 0; ix < op.nx; ix++ {
		col := op.row[:op.ny]
		for iy := 0; iy < op.ny; iy++ {
			col[iy] = c[op.index[iy*op.nx+ix]]
		}
		for iy := 0; iy < op.ny; iy++ {
			ci := op.index[iy*op.nx+ix]
			v := env.V[ci]
			lo, hi := env.Inflow, env.Inflow
			if iy > 0 {
				lo = col[iy-1]
			}
			if iy < op.ny-1 {
				hi = col[iy+1]
			}
			var adv float64
			if v >= 0 {
				adv = -v * (col[iy] - lo) / op.sz
			} else {
				adv = -v * (hi - col[iy]) / op.sz
			}
			diff := env.KH * (lo - 2*col[iy] + hi) / (op.sz * op.sz)
			nv := col[iy] + h*(adv+diff)
			if nv < 0 {
				nv = 0
			}
			c[ci] = nv
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
