package chemistry

import (
	"fmt"
)

// ColumnGeometry describes the vertical layer structure shared by every
// column of the model (the "layers" dimension of A(species, layers,
// cells)).
type ColumnGeometry struct {
	// Dz holds the layer thicknesses in metres, ground layer first.
	Dz []float64
	// zc (derived) holds layer-centre heights; dzi holds centre-to-centre
	// distances at the interior interfaces.
	zc  []float64
	dzi []float64
}

// NewColumnGeometry builds the geometry from layer thicknesses.
func NewColumnGeometry(dz []float64) (*ColumnGeometry, error) {
	if len(dz) == 0 {
		return nil, fmt.Errorf("chemistry: column needs at least one layer")
	}
	g := &ColumnGeometry{Dz: append([]float64(nil), dz...)}
	g.zc = make([]float64, len(dz))
	z := 0.0
	for l, d := range dz {
		if d <= 0 {
			return nil, fmt.Errorf("chemistry: layer %d has non-positive thickness %g", l, d)
		}
		g.zc[l] = z + d/2
		z += d
	}
	g.dzi = make([]float64, len(dz)-1)
	for l := 0; l+1 < len(dz); l++ {
		g.dzi[l] = g.zc[l+1] - g.zc[l]
	}
	return g, nil
}

// Layers returns the layer count.
func (g *ColumnGeometry) Layers() int { return len(g.Dz) }

// StandardLayers returns the 5-layer structure used by the paper's data
// sets (both LA and NE use 5 layers): a shallow surface layer growing to a
// deep upper layer, spanning a ~1.1 km modelling domain.
func StandardLayers() *ColumnGeometry {
	g, err := NewColumnGeometry([]float64{38.5, 100, 200, 300, 500})
	if err != nil {
		panic(err)
	}
	return g
}

// VerticalEnv carries the per-column, per-hour vertical transport forcing.
type VerticalEnv struct {
	// Kz holds eddy diffusivities (m^2/s) at the interior interfaces;
	// length Layers-1.
	Kz []float64
	// VDep holds per-species dry deposition velocities (m/s) at the
	// surface; length = number of species.
	VDep []float64
	// Emis holds per-species surface emission fluxes (ppm*m/s) injected
	// into the ground layer; length = number of species.
	Emis []float64
	// VSettle holds per-species gravitational settling velocities (m/s,
	// downward) for particulate species; nil means no settling. Settled
	// material leaving the ground layer deposits to the surface.
	VSettle []float64
}

// VerticalSolver integrates vertical diffusion + deposition + emission
// implicitly (backward Euler) with the Thomas tridiagonal algorithm, one
// species at a time. A solver owns scratch buffers and is NOT safe for
// concurrent use.
type VerticalSolver struct {
	geo *ColumnGeometry
	// Thomas scratch.
	a, b, cc, d, x []float64
	col            []float64
}

// NewVerticalSolver creates a solver for the geometry.
func NewVerticalSolver(geo *ColumnGeometry) *VerticalSolver {
	n := geo.Layers()
	return &VerticalSolver{
		geo: geo,
		a:   make([]float64, n),
		b:   make([]float64, n),
		cc:  make([]float64, n),
		d:   make([]float64, n),
		x:   make([]float64, n),
		col: make([]float64, n),
	}
}

// Step advances one column by dt seconds. conc is the column's
// concentration block indexed conc[species + nspecies*layer] (the natural
// slice of the global array for one cell); it is modified in place.
// Returns the number of floating point work units performed.
func (vs *VerticalSolver) Step(conc []float64, nspecies int, env *VerticalEnv, dt float64) (float64, error) {
	nl := vs.geo.Layers()
	if len(conc) != nspecies*nl {
		return 0, fmt.Errorf("chemistry: column block has %d values, want %d", len(conc), nspecies*nl)
	}
	if len(env.Kz) != nl-1 {
		return 0, fmt.Errorf("chemistry: Kz has %d interfaces, want %d", len(env.Kz), nl-1)
	}
	if len(env.VDep) != nspecies || len(env.Emis) != nspecies {
		return 0, fmt.Errorf("chemistry: VDep/Emis species count mismatch")
	}
	if env.VSettle != nil && len(env.VSettle) != nspecies {
		return 0, fmt.Errorf("chemistry: VSettle species count mismatch")
	}
	if dt <= 0 {
		return 0, fmt.Errorf("chemistry: non-positive dt %g", dt)
	}
	dz := vs.geo.Dz
	for s := 0; s < nspecies; s++ {
		// Gather the column for species s.
		for l := 0; l < nl; l++ {
			vs.col[l] = conc[s+nspecies*l]
		}
		// Build the implicit system (I - dt*D) x = col + dt*src.
		for l := 0; l < nl; l++ {
			var lo, hi float64 // exchange coefficients with l-1, l+1 (1/s)
			if l > 0 {
				lo = env.Kz[l-1] / (vs.geo.dzi[l-1] * dz[l])
			}
			if l < nl-1 {
				hi = env.Kz[l] / (vs.geo.dzi[l] * dz[l])
			}
			vs.a[l] = -dt * lo
			vs.cc[l] = -dt * hi
			vs.b[l] = 1 + dt*(lo+hi)
			vs.d[l] = vs.col[l]
		}
		// Gravitational settling: a downward advection at vsettle,
		// implicit upwind. Every layer loses downward; the layer below
		// gains; the ground layer's loss deposits to the surface.
		if env.VSettle != nil && env.VSettle[s] > 0 {
			w := env.VSettle[s]
			for l := 0; l < nl; l++ {
				vs.b[l] += dt * w / dz[l]
				if l < nl-1 {
					vs.cc[l] -= dt * w / dz[l]
				}
			}
		}
		// Surface deposition sink and emission source act on layer 0.
		vs.b[0] += dt * env.VDep[s] / dz[0]
		vs.d[0] += dt * env.Emis[s] / dz[0]

		if err := thomas(vs.a, vs.b, vs.cc, vs.d, vs.x); err != nil {
			return 0, err
		}
		for l := 0; l < nl; l++ {
			v := vs.x[l]
			if v < 0 {
				v = 0
			}
			conc[s+nspecies*l] = v
		}
	}
	// Work estimate: gather + assemble + Thomas + scatter, ~14 flops per
	// (species, layer).
	return float64(14 * nspecies * nl), nil
}

// thomas solves the tridiagonal system with sub-diagonal a, diagonal b,
// super-diagonal c and right-hand side d into x. All slices share length n;
// a[0] and c[n-1] are ignored. It overwrites c and d as scratch.
func thomas(a, b, c, d, x []float64) error {
	n := len(b)
	if n == 0 {
		return fmt.Errorf("chemistry: empty tridiagonal system")
	}
	if b[0] == 0 {
		return fmt.Errorf("chemistry: singular tridiagonal system")
	}
	c[0] = c[0] / b[0]
	d[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		m := b[i] - a[i]*c[i-1]
		if m == 0 {
			return fmt.Errorf("chemistry: singular tridiagonal system at row %d", i)
		}
		c[i] = c[i] / m
		d[i] = (d[i] - a[i]*d[i-1]) / m
	}
	x[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = d[i] - c[i]*x[i+1]
	}
	return nil
}
