// Package meteo generates the hourly meteorological and emission inputs
// that drive the Airshed simulation. The paper's experiments use measured
// hourly inputs for the Los Angeles basin and the North-East United States
// ("hourly input of sun and wind conditions, and release of additional
// chemicals"); those data sets are not publicly available, so this package
// substitutes deterministic synthetic fields with the same structure:
//
//   - a diurnal solar cycle driving photolysis and the boundary layer,
//   - a wind field with a synoptic component, a diurnal sea-breeze-like
//     rotation and a terrain channelling factor,
//   - a boundary-layer eddy diffusivity (Kz) cycle (convective by day,
//     stable by night),
//   - surface emissions with an urban-core spatial kernel, traffic rush
//     hours, elevated point sources and daytime biogenics.
//
// Everything is an analytic function of (hour, position): runs are exactly
// reproducible, and hour inputs can be regenerated, serialised by package
// hourio, and verified. See DESIGN.md for why this substitution preserves
// the paper's performance behaviour.
package meteo

import (
	"fmt"
	"math"

	"airshed/internal/chemistry"
	"airshed/internal/grid"
	"airshed/internal/species"
)

// HourInput bundles everything the model consumes for one simulated hour.
type HourInput struct {
	// Hour is the absolute simulation hour (0-based; hour%24 is the
	// local time of day).
	Hour int
	// Sun is the normalised actinic flux in [0, 1].
	Sun float64
	// TempK is the temperature per layer, Kelvin.
	TempK []float64
	// WindU, WindV hold cell-centre velocities per layer:
	// WindU[layer][cell], m/s.
	WindU, WindV [][]float64
	// KH is the horizontal eddy diffusivity, m^2/s.
	KH float64
	// Kz holds vertical diffusivities at the layer interfaces, m^2/s.
	Kz []float64
	// Emis holds surface emission fluxes Emis[species][cell] in
	// ppm*m/s.
	Emis [][]float64
	// VDep holds dry deposition velocities per species, m/s.
	VDep []float64
	// VSettle holds gravitational settling velocities per species, m/s.
	VSettle []float64
	// Inflow holds boundary inflow concentrations per species, ppm.
	Inflow []float64
}

// Scenario parameterises the synthetic generator.
type Scenario struct {
	// Name labels the scenario ("Los Angeles basin").
	Name string
	// UrbanX, UrbanY is the urban-core centre in domain coordinates.
	UrbanX, UrbanY float64
	// UrbanRadius is the e-folding radius of the emission kernel, m.
	UrbanRadius float64
	// EmissionScale multiplies all anthropogenic emissions (the knob
	// the policy example turns).
	EmissionScale float64
	// NOxScale and VOCScale multiply the NOx and organic shares
	// separately (for control-strategy studies).
	NOxScale, VOCScale float64
	// SynopticU, SynopticV is the mean background wind, m/s.
	SynopticU, SynopticV float64
	// SeaBreeze is the amplitude of the diurnal wind rotation, m/s.
	SeaBreeze float64
	// BaseTempK is the surface temperature at dawn.
	BaseTempK float64
	// PointSources lists elevated SO2/NOx stacks.
	PointSources []PointSource
	// SourceMask, when non-nil, selects the cells of one source group
	// for source–receptor perturbation runs: the NOx and VOC traffic
	// emission shares of cells with SourceMask[cell]==true are further
	// multiplied by GroupNOx and GroupVOC. The mask must cover every
	// grid cell. Point sources, CO/SO2 co-emissions and biogenics are
	// untouched — the group knobs perturb exactly the shares the global
	// NOxScale/VOCScale knobs control, so scaling every group by s is
	// equivalent to scaling NOxScale/VOCScale by s.
	SourceMask []bool
	// GroupNOx, GroupVOC multiply the masked cells' NOx/VOC shares.
	// Ignored when SourceMask is nil.
	GroupNOx, GroupVOC float64
}

// PointSource is an elevated industrial emitter.
type PointSource struct {
	X, Y float64
	// SO2, NOx are emission strengths in ppm*m/s concentrated on the
	// containing cell.
	SO2, NOx float64
}

// Validate reports scenario construction errors.
func (s *Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("meteo: scenario needs a name")
	case s.UrbanRadius <= 0:
		return fmt.Errorf("meteo: UrbanRadius must be positive")
	case s.EmissionScale < 0 || s.NOxScale < 0 || s.VOCScale < 0:
		return fmt.Errorf("meteo: emission scales must be non-negative")
	case s.BaseTempK <= 0:
		return fmt.Errorf("meteo: BaseTempK must be positive")
	case s.SourceMask != nil && (s.GroupNOx < 0 || s.GroupVOC < 0):
		return fmt.Errorf("meteo: group emission scales must be non-negative")
	}
	return nil
}

// Synthetic is the analytic generator of a scenario's hour inputs.
type Synthetic struct {
	scn  Scenario
	g    *grid.Grid
	mech *species.Mechanism
	geo  *chemistry.ColumnGeometry

	// Species indices resolved once.
	iNO, iNO2, iCO, iSO2, iFORM, iALD2  int
	iPAR, iOLE, iETH, iTOL, iXYL, iISOP int
}

// NewSynthetic builds the provider for a scenario over a finalized grid.
func NewSynthetic(scn Scenario, g *grid.Grid, mech *species.Mechanism, geo *chemistry.ColumnGeometry) (*Synthetic, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if len(g.Cells) == 0 {
		return nil, fmt.Errorf("meteo: grid not finalized")
	}
	if scn.SourceMask != nil && len(scn.SourceMask) != len(g.Cells) {
		return nil, fmt.Errorf("meteo: source mask covers %d cells, grid has %d",
			len(scn.SourceMask), len(g.Cells))
	}
	s := &Synthetic{scn: scn, g: g, mech: mech, geo: geo}
	s.iNO = mech.MustIndex("NO")
	s.iNO2 = mech.MustIndex("NO2")
	s.iCO = mech.MustIndex("CO")
	s.iSO2 = mech.MustIndex("SO2")
	s.iFORM = mech.MustIndex("FORM")
	s.iALD2 = mech.MustIndex("ALD2")
	s.iPAR = mech.MustIndex("PAR")
	s.iOLE = mech.MustIndex("OLE")
	s.iETH = mech.MustIndex("ETH")
	s.iTOL = mech.MustIndex("TOL")
	s.iXYL = mech.MustIndex("XYL")
	s.iISOP = mech.MustIndex("ISOP")
	return s, nil
}

// Grid returns the horizontal grid the inputs are defined on.
func (s *Synthetic) Grid() *grid.Grid { return s.g }

// Mechanism returns the chemical mechanism.
func (s *Synthetic) Mechanism() *species.Mechanism { return s.mech }

// Geometry returns the column geometry.
func (s *Synthetic) Geometry() *chemistry.ColumnGeometry { return s.geo }

// Scenario returns the provider's scenario.
func (s *Synthetic) Scenario() Scenario { return s.scn }

// SunAt returns the normalised actinic flux at an hour of day: zero at
// night, a half-sine peaking at local noon.
func SunAt(hour int) float64 {
	h := float64(hour % 24)
	if h < 6 || h > 18 {
		return 0
	}
	return math.Sin(math.Pi * (h - 6) / 12)
}

// TrafficAt returns the diurnal traffic emission factor: a double-peaked
// rush-hour profile normalised so the daily mean is ~1.
func TrafficAt(hour int) float64 {
	h := float64(hour % 24)
	morning := math.Exp(-((h - 7.5) * (h - 7.5)) / 4.5)
	evening := math.Exp(-((h - 17.5) * (h - 17.5)) / 6.0)
	return 0.35 + 1.9*(morning+0.85*evening)
}

// HourInput computes the input for an absolute hour.
func (s *Synthetic) HourInput(hour int) (*HourInput, error) {
	if hour < 0 {
		return nil, fmt.Errorf("meteo: negative hour %d", hour)
	}
	g := s.g
	nl := s.geo.Layers()
	ns := s.mech.N()
	sun := SunAt(hour)
	h24 := float64(hour % 24)

	in := &HourInput{
		Hour:   hour,
		Sun:    sun,
		TempK:  make([]float64, nl),
		WindU:  make([][]float64, nl),
		WindV:  make([][]float64, nl),
		KH:     60 + 140*sun,
		Kz:     make([]float64, nl-1),
		Emis:   make([][]float64, ns),
		VDep:   make([]float64, ns),
		Inflow: make([]float64, ns),
	}

	// Temperature: diurnal surface cycle with a lapse rate aloft.
	surf := s.scn.BaseTempK + 9*sun
	for l := 0; l < nl; l++ {
		in.TempK[l] = surf - 1.9*float64(l)
	}

	// Boundary-layer diffusivity: convective daytime growth, stable
	// nights; decays with height.
	for i := range in.Kz {
		dayKz := 4 + 110*sun
		in.Kz[i] = dayKz / (1 + 0.7*float64(i))
		if in.Kz[i] < 0.8 {
			in.Kz[i] = 0.8
		}
	}

	// Wind: synoptic flow + diurnal rotating breeze + channelling.
	phase := 2 * math.Pi * h24 / 24
	bu := s.scn.SeaBreeze * math.Sin(phase)
	bv := s.scn.SeaBreeze * 0.6 * math.Cos(phase)
	for l := 0; l < nl; l++ {
		in.WindU[l] = make([]float64, len(g.Cells))
		in.WindV[l] = make([]float64, len(g.Cells))
		// Wind strengthens aloft and rotates slightly (Ekman-like).
		amp := 1 + 0.25*float64(l)
		rot := 0.12 * float64(l)
		cosr, sinr := math.Cos(rot), math.Sin(rot)
		for i := range g.Cells {
			// Terrain channelling: the flow accelerates through a
			// west-east corridor at mid-domain.
			ch := 1 + 0.3*math.Sin(math.Pi*g.Cells[i].Y/g.H)
			u := (s.scn.SynopticU + bu) * ch * amp
			v := (s.scn.SynopticV + bv) * amp
			in.WindU[l][i] = u*cosr - v*sinr
			in.WindV[l][i] = u*sinr + v*cosr
		}
	}

	// Settling: aerosol sulfate falls gravitationally.
	in.VSettle = make([]float64, ns)
	in.VSettle[s.mech.MustIndex("ASO4")] = 2e-3

	// Deposition velocities by class, enhanced in daytime turbulence.
	for i, sp := range s.mech.Species {
		var v float64
		switch sp.Dep {
		case species.DepNone:
			v = 0
		case species.DepSlow:
			v = 0.001
		case species.DepModerate:
			v = 0.004
		case species.DepFast:
			v = 0.012
		}
		in.VDep[i] = v * (0.6 + 0.8*sun)
		in.Inflow[i] = sp.Background
	}

	// Emissions.
	for sp := 0; sp < ns; sp++ {
		in.Emis[sp] = make([]float64, len(g.Cells))
	}
	traffic := TrafficAt(hour) * s.scn.EmissionScale
	nox := traffic * s.scn.NOxScale
	voc := traffic * s.scn.VOCScale
	for i := range g.Cells {
		dx := g.Cells[i].X - s.scn.UrbanX
		dy := g.Cells[i].Y - s.scn.UrbanY
		kernel := math.Exp(-math.Sqrt(dx*dx+dy*dy) / s.scn.UrbanRadius)
		if kernel < 1e-4 {
			kernel = 1e-4 // rural floor
		}
		noxC, vocC := nox, voc
		if s.scn.SourceMask != nil && s.scn.SourceMask[i] {
			noxC *= s.scn.GroupNOx
			vocC *= s.scn.GroupVOC
		}
		in.Emis[s.iNO][i] = 2.4e-3 * noxC * kernel
		in.Emis[s.iNO2][i] = 4.0e-4 * noxC * kernel
		in.Emis[s.iCO][i] = 2.0e-2 * traffic * kernel
		in.Emis[s.iPAR][i] = 9.0e-3 * vocC * kernel
		in.Emis[s.iOLE][i] = 8.0e-4 * vocC * kernel
		in.Emis[s.iETH][i] = 9.0e-4 * vocC * kernel
		in.Emis[s.iTOL][i] = 7.0e-4 * vocC * kernel
		in.Emis[s.iXYL][i] = 5.0e-4 * vocC * kernel
		in.Emis[s.iFORM][i] = 3.0e-4 * vocC * kernel
		in.Emis[s.iALD2][i] = 2.0e-4 * vocC * kernel
		in.Emis[s.iSO2][i] = 6.0e-4 * traffic * kernel
		// Biogenic isoprene: rural daytime, temperature dependent.
		bio := sun * (1 - kernel) * 6.0e-4
		in.Emis[s.iISOP][i] = bio
	}
	for _, ps := range s.scn.PointSources {
		ci := g.FindCell(ps.X, ps.Y)
		if ci < 0 {
			continue
		}
		in.Emis[s.iSO2][ci] += ps.SO2 * s.scn.EmissionScale
		in.Emis[s.iNO][ci] += ps.NOx * 0.9 * s.scn.EmissionScale
		in.Emis[s.iNO2][ci] += ps.NOx * 0.1 * s.scn.EmissionScale
	}
	return in, nil
}

// InitialConcentrations builds the starting concentration array in the
// layout A[species + NS*(layer + NL*cell)]: clean background plus an
// aged-pollution enhancement over the urban core.
func (s *Synthetic) InitialConcentrations() []float64 {
	g := s.g
	ns := s.mech.N()
	nl := s.geo.Layers()
	conc := make([]float64, ns*nl*len(g.Cells))
	bg := s.mech.Backgrounds()
	for ci := range g.Cells {
		dx := g.Cells[ci].X - s.scn.UrbanX
		dy := g.Cells[ci].Y - s.scn.UrbanY
		kernel := math.Exp(-math.Sqrt(dx*dx+dy*dy) / s.scn.UrbanRadius)
		for l := 0; l < nl; l++ {
			// Pollution concentrated in the lower layers.
			depth := 1.0 / (1 + 0.8*float64(l))
			for sp := 0; sp < ns; sp++ {
				v := bg[sp]
				switch sp {
				case s.iNO, s.iNO2, s.iCO, s.iPAR, s.iTOL, s.iXYL, s.iSO2:
					v *= 1 + 4*kernel*depth
				}
				conc[sp+ns*(l+nl*ci)] = v
			}
		}
	}
	return conc
}
