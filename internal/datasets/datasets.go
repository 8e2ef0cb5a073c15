// Package datasets builds the two input configurations of the paper's
// evaluation: the Los Angeles basin (700 grid nodes, 5 layers, 35 species
// — the concentration array A(35,5,700)) and the North-East United States
// (3328 grid nodes, 5 layers, 35 species — A(35,5,3328)). Grid topology,
// meteorology and emissions are synthetic (see package meteo and
// DESIGN.md) but the array dimensions, the multiscale structure and the
// relative workload distribution match the paper's description.
package datasets

import (
	"fmt"
	"strings"
	"sync"

	"airshed/internal/chemistry"
	"airshed/internal/dist"
	"airshed/internal/grid"
	"airshed/internal/meteo"
	"airshed/internal/species"
)

// Dataset is a fully assembled model input configuration.
type Dataset struct {
	// Name identifies the data set ("LA", "NE").
	Name string
	// Provider generates the hourly inputs.
	Provider *meteo.Synthetic
	// Shape is the concentration array shape A(species, layers, cells).
	Shape dist.Shape

	// ChemFlopsScale calibrates charged chemistry work: the full CIT
	// mechanism costs more per evaluation than the condensed mechanism
	// executed here, and the 1990s compilers' scalar code costs more
	// per flop-equivalent. See DESIGN.md ("calibration").
	ChemFlopsScale float64
	// TransportFlopsScale calibrates charged transport work likewise.
	TransportFlopsScale float64
	// IOBytesPerHour is the charged volume of hourly input plus output
	// processing (the sequential I/O phases).
	IOBytesPerHour int64
}

// Grid returns the dataset's horizontal grid.
func (d *Dataset) Grid() *grid.Grid { return d.Provider.Grid() }

// Mechanism returns the dataset's chemical mechanism.
func (d *Dataset) Mechanism() *species.Mechanism { return d.Provider.Mechanism() }

// Geometry returns the dataset's column geometry.
func (d *Dataset) Geometry() *chemistry.ColumnGeometry { return d.Provider.Geometry() }

// LA builds the Los Angeles basin data set: a 200x200 km domain, 10x10
// coarse grid refined around the urban core to exactly 700 cells
// (A(35,5,700), as in the paper).
func LA() (*Dataset, error) {
	g, err := grid.New(200e3, 200e3, 10, 10)
	if err != nil {
		return nil, err
	}
	// 100 base cells + 200 splits * 3 = 700 leaves.
	g.RefineNear(90e3, 100e3, 3, 700)
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	if g.NumCells() != 700 {
		return nil, fmt.Errorf("datasets: LA grid has %d cells, want 700", g.NumCells())
	}
	mech := species.StandardMechanism()
	geo := chemistry.StandardLayers()
	scn := meteo.Scenario{
		Name:          "Los Angeles basin",
		UrbanX:        90e3,
		UrbanY:        100e3,
		UrbanRadius:   35e3,
		EmissionScale: 1.0,
		NOxScale:      1.0,
		VOCScale:      1.0,
		SynopticU:     2.8,
		SynopticV:     0.9,
		SeaBreeze:     2.4,
		BaseTempK:     288,
		PointSources: []meteo.PointSource{
			{X: 55e3, Y: 65e3, SO2: 0.09, NOx: 0.05},
			{X: 140e3, Y: 120e3, SO2: 0.06, NOx: 0.03},
		},
	}
	prov, err := meteo.NewSynthetic(scn, g, mech, geo)
	if err != nil {
		return nil, err
	}
	sh := dist.Shape{Species: mech.N(), Layers: geo.Layers(), Cells: g.NumCells()}
	return &Dataset{
		Name:                "LA",
		Provider:            prov,
		Shape:               sh,
		ChemFlopsScale:      0.74,
		TransportFlopsScale: 6.0,
		IOBytesPerHour:      hourVolume(sh),
	}, nil
}

// LAControls builds the LA data set with scaled anthropogenic emissions:
// the emission-control-strategy evaluation the paper names as Airshed's
// purpose ("The effect of air pollution control measures can be evaluated
// at a low cost"). noxScale and vocScale multiply the NOx and organic
// emission shares (1.0 = the base inventory).
func LAControls(noxScale, vocScale float64) (*Dataset, error) {
	ds, err := LA()
	if err != nil {
		return nil, err
	}
	scn := ds.Provider.Scenario()
	scn.NOxScale = noxScale
	scn.VOCScale = vocScale
	scn.Name = fmt.Sprintf("Los Angeles basin (NOx x%.2f, VOC x%.2f)", noxScale, vocScale)
	prov, err := meteo.NewSynthetic(scn, ds.Grid(), ds.Mechanism(), ds.Geometry())
	if err != nil {
		return nil, err
	}
	ds.Provider = prov
	return ds, nil
}

// NE builds the North-East United States data set: a 1024x1024 km domain,
// 16x16 coarse grid refined around the megalopolis corridor to exactly
// 3328 cells (A(35,5,3328), as in the paper).
func NE() (*Dataset, error) {
	g, err := grid.New(1024e3, 1024e3, 16, 16)
	if err != nil {
		return nil, err
	}
	// 256 base cells + 1024 splits * 3 = 3328 leaves.
	g.RefineNear(600e3, 420e3, 3, 3328)
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	if g.NumCells() != 3328 {
		return nil, fmt.Errorf("datasets: NE grid has %d cells, want 3328", g.NumCells())
	}
	mech := species.StandardMechanism()
	geo := chemistry.StandardLayers()
	scn := meteo.Scenario{
		Name:          "North-East United States",
		UrbanX:        600e3,
		UrbanY:        420e3,
		UrbanRadius:   130e3,
		EmissionScale: 1.0,
		NOxScale:      1.0,
		VOCScale:      1.0,
		SynopticU:     3.4,
		SynopticV:     1.4,
		SeaBreeze:     1.8,
		BaseTempK:     285,
		PointSources: []meteo.PointSource{
			{X: 300e3, Y: 300e3, SO2: 0.12, NOx: 0.07},
			{X: 700e3, Y: 500e3, SO2: 0.10, NOx: 0.05},
			{X: 500e3, Y: 600e3, SO2: 0.08, NOx: 0.04},
		},
	}
	prov, err := meteo.NewSynthetic(scn, g, mech, geo)
	if err != nil {
		return nil, err
	}
	sh := dist.Shape{Species: mech.N(), Layers: geo.Layers(), Cells: g.NumCells()}
	return &Dataset{
		Name:                "NE",
		Provider:            prov,
		Shape:               sh,
		ChemFlopsScale:      0.74,
		TransportFlopsScale: 6.0,
		IOBytesPerHour:      hourVolume(sh),
	}, nil
}

// Mini builds a reduced configuration for tests and quick demos: a 40x40
// km domain with a 4x4 coarse grid refined to exactly 52 cells, the full
// 35-species mechanism and 5 layers (A(35,5,52)). It exercises every code
// path of the full data sets at ~7% of the cost.
func Mini() (*Dataset, error) {
	g, err := grid.New(40e3, 40e3, 4, 4)
	if err != nil {
		return nil, err
	}
	// 16 base cells + 12 splits * 3 = 52 leaves.
	g.RefineNear(20e3, 20e3, 2, 52)
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	mech := species.StandardMechanism()
	geo := chemistry.StandardLayers()
	scn := meteo.Scenario{
		Name:          "Mini test basin",
		UrbanX:        20e3,
		UrbanY:        20e3,
		UrbanRadius:   9e3,
		EmissionScale: 1.0,
		NOxScale:      1.0,
		VOCScale:      1.0,
		SynopticU:     2.2,
		SynopticV:     0.7,
		SeaBreeze:     1.6,
		BaseTempK:     290,
	}
	prov, err := meteo.NewSynthetic(scn, g, mech, geo)
	if err != nil {
		return nil, err
	}
	sh := dist.Shape{Species: mech.N(), Layers: geo.Layers(), Cells: g.NumCells()}
	return &Dataset{
		Name:                "Mini",
		Provider:            prov,
		Shape:               sh,
		ChemFlopsScale:      0.74,
		TransportFlopsScale: 6.0,
		IOBytesPerHour:      hourVolume(sh),
	}, nil
}

// table is the one spelling of the dataset key set: canonical lower-case
// keys, sorted, each with its builder memoised for the process. ByName,
// Known and Names all read it; lookup is the one place case is folded.
var table = []struct {
	key   string
	build func() (*Dataset, error)
}{
	{"la", sync.OnceValues(LA)},
	{"mini", sync.OnceValues(Mini)},
	{"ne", sync.OnceValues(NE)},
}

func lookup(key string) func() (*Dataset, error) {
	for _, row := range table {
		if strings.EqualFold(row.key, key) {
			return row.build
		}
	}
	return nil
}

// ByName returns a dataset by key ("la", "ne" or "mini", in any case).
// Each is built once per process: grid, mechanism, geometry and provider
// are immutable after construction and shared by every caller, while the
// returned Dataset struct is the caller's own shallow copy — assigning its
// fields (as scenario.Spec.Config does with Provider for emission-control
// variants) is invisible to every other holder. LA, NE and Mini remain
// the fresh builders.
func ByName(key string) (*Dataset, error) {
	build := lookup(key)
	if build == nil {
		return nil, fmt.Errorf("datasets: unknown data set %q (known: %s)", key, strings.Join(Names(), ", "))
	}
	shared, err := build()
	if err != nil {
		return nil, err
	}
	ds := *shared
	return &ds, nil
}

// Names returns the canonical dataset keys accepted by ByName, sorted.
// It is cheap — no dataset is constructed — so callers can validate a key
// without building grids and providers.
func Names() []string {
	names := make([]string, len(table))
	for i, row := range table {
		names[i] = row.key
	}
	return names
}

// Known reports whether key (case-insensitively) names a dataset.
func Known(key string) bool { return lookup(key) != nil }

// hourVolume estimates the byte volume of one hour's input processing
// (meteorology + emissions + boundary conditions) plus output processing
// (the concentration snapshot), which the sequential I/O phases handle.
func hourVolume(sh dist.Shape) int64 {
	w := int64(8)
	conc := sh.Bytes(8)                                        // output snapshot
	wind := int64(2*sh.Layers*sh.Cells) * w                    // u, v per layer
	emis := int64(sh.Species*sh.Cells) * w                     // surface fluxes
	scalars := int64(sh.Layers+sh.Species*2+sh.Layers-1+8) * w // temp, vdep, inflow, kz, header
	return conc + wind + emis + scalars
}
