package datasets

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"airshed/internal/grid"
)

func TestLADimensionsMatchPaper(t *testing.T) {
	ds, err := LA()
	if err != nil {
		t.Fatal(err)
	}
	// The paper: A(35, 5, 700) for the Los Angeles data set.
	if ds.Shape.Species != 35 || ds.Shape.Layers != 5 || ds.Shape.Cells != 700 {
		t.Errorf("LA shape %v, want A(35,5,700)", ds.Shape)
	}
	if ds.Grid().NumCells() != 700 {
		t.Errorf("LA grid has %d cells", ds.Grid().NumCells())
	}
	if ds.Name != "LA" {
		t.Errorf("name %q", ds.Name)
	}
	// Multiscale: several refinement levels present.
	if ds.Grid().MaxLevel() < 2 {
		t.Errorf("LA grid max level %d; expected a multiscale grid", ds.Grid().MaxLevel())
	}
}

func TestNEDimensionsMatchPaper(t *testing.T) {
	ds, err := NE()
	if err != nil {
		t.Fatal(err)
	}
	// The paper: A(35, 5, 3328) for the North East data set.
	if ds.Shape.Species != 35 || ds.Shape.Layers != 5 || ds.Shape.Cells != 3328 {
		t.Errorf("NE shape %v, want A(35,5,3328)", ds.Shape)
	}
	if ds.Grid().MaxLevel() < 2 {
		t.Errorf("NE grid max level %d", ds.Grid().MaxLevel())
	}
}

func TestMiniDataset(t *testing.T) {
	ds, err := Mini()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Shape.Species != 35 || ds.Shape.Layers != 5 {
		t.Errorf("Mini must keep the full species/layer structure, got %v", ds.Shape)
	}
	if ds.Shape.Cells >= 700 {
		t.Errorf("Mini not small: %d cells", ds.Shape.Cells)
	}
}

func TestByName(t *testing.T) {
	for _, key := range []string{"la", "LA", "ne", "NE", "mini"} {
		ds, err := ByName(key)
		if err != nil {
			t.Errorf("ByName(%q): %v", key, err)
			continue
		}
		if ds.Shape.Species != 35 {
			t.Errorf("ByName(%q): wrong mechanism", key)
		}
	}
	if _, err := ByName("tokyo"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds, err := Mini()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Mechanism().N() != ds.Shape.Species {
		t.Error("Mechanism accessor inconsistent")
	}
	if ds.Geometry().Layers() != ds.Shape.Layers {
		t.Error("Geometry accessor inconsistent")
	}
	if ds.IOBytesPerHour <= int64(ds.Shape.Len()*8) {
		t.Error("hourly I/O volume must exceed one snapshot")
	}
	if ds.ChemFlopsScale <= 0 || ds.TransportFlopsScale <= 0 {
		t.Error("calibration scales must be positive")
	}
}

func TestLAControls(t *testing.T) {
	ds, err := LAControls(0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	scn := ds.Provider.Scenario()
	if scn.NOxScale != 0.5 || scn.VOCScale != 0.8 {
		t.Errorf("scales not applied: %+v", scn)
	}
	if ds.Shape.Cells != 700 {
		t.Error("controls variant changed the grid")
	}
	// Emissions actually scale: compare NO emissions against the base.
	base, err := LA()
	if err != nil {
		t.Fatal(err)
	}
	inBase, err := base.Provider.HourInput(8)
	if err != nil {
		t.Fatal(err)
	}
	inCtl, err := ds.Provider.HourInput(8)
	if err != nil {
		t.Fatal(err)
	}
	iNO := ds.Mechanism().MustIndex("NO")
	iPAR := ds.Mechanism().MustIndex("PAR")
	// The urban-kernel share of NO halves; point sources are unscaled by
	// NOxScale, so compare a cell away from the stacks.
	cell := ds.Grid().FindCell(190e3, 190e3)
	if r := inCtl.Emis[iNO][cell] / inBase.Emis[iNO][cell]; r < 0.49 || r > 0.51 {
		t.Errorf("NO emission ratio %g, want ~0.5", r)
	}
	if r := inCtl.Emis[iPAR][cell] / inBase.Emis[iPAR][cell]; r < 0.79 || r > 0.81 {
		t.Errorf("PAR emission ratio %g, want ~0.8", r)
	}
}

// Hour inputs for both paper data sets must be generatable across a day.
func TestPaperDatasetsGenerateInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("NE input generation is sizeable")
	}
	for _, name := range []string{"la", "ne"} {
		ds, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, hour := range []int{0, 8, 12, 23} {
			in, err := ds.Provider.HourInput(hour)
			if err != nil {
				t.Fatalf("%s hour %d: %v", name, hour, err)
			}
			if len(in.WindU[0]) != ds.Shape.Cells {
				t.Fatalf("%s hour %d: wind field size", name, hour)
			}
		}
	}
}

// One key table, case folded in one place: every spelling ByName accepts
// Known accepts, and Names hands out its own slice each call.
func TestKeysFoldCase(t *testing.T) {
	for _, key := range []string{"la", "La", "LA", "ne", "Ne", "NE", "mini", "Mini", "MINI", "mInI"} {
		if !Known(key) {
			t.Errorf("Known(%q) = false", key)
		}
		if _, err := ByName(key); err != nil {
			t.Errorf("ByName(%q): %v", key, err)
		}
	}
	for _, key := range []string{"", "tokyo", "la ", "l"} {
		if Known(key) {
			t.Errorf("Known(%q) = true", key)
		}
		if _, err := ByName(key); err == nil {
			t.Errorf("ByName(%q) accepted", key)
		}
	}
	names := Names()
	if !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Fatalf("Names() = %v, want three sorted keys", names)
	}
	names[0] = "scribbled"
	if again := Names(); again[0] != "la" {
		t.Errorf("Names() shares its slice between calls: %v", again)
	}
}

// ByName builds each dataset once and hands every caller its own struct
// over the shared grid and provider: field assignments stay private.
func TestByNameSharesPartsNotStruct(t *testing.T) {
	a, err := ByName("la")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("LA")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two ByName calls returned the same *Dataset")
	}
	if a.Grid() != b.Grid() || a.Mechanism() != b.Mechanism() || a.Geometry() != b.Geometry() || a.Provider != b.Provider {
		t.Error("ByName rebuilt the grid, mechanism, geometry or provider")
	}
	base := b.Provider
	ctl, err := LAControls(0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	a.Provider, a.Name, a.ChemFlopsScale = ctl.Provider, "scribbled", 99
	c, err := ByName("la")
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*Dataset{b, c} {
		if ds.Provider != base || ds.Name != "LA" || ds.ChemFlopsScale != 0.74 {
			t.Errorf("assignment through one ByName result leaked: %+v", ds)
		}
	}
	fresh, err := LA()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Grid() == c.Grid() {
		t.Error("LA() returned the memoised grid; it is the fresh builder")
	}
	if !reflect.DeepEqual(c.Provider.Scenario(), fresh.Provider.Scenario()) {
		t.Error("memoised LA scenario differs from a fresh LA()'s")
	}
}

// Concurrent first use: run under -race.
func TestByNameConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	grids := make([]*grid.Grid, 8)
	for i := range grids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, err := ByName([]string{"mini", "la"}[i%2])
			if err != nil {
				t.Error(err)
				return
			}
			ds.Name = "mine" // a private copy: no race, no leak
			if _, err := ds.Provider.HourInput(8); err != nil {
				t.Error(err)
			}
			grids[i] = ds.Grid()
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(grids); i++ {
		if grids[i] != grids[i-2] {
			t.Errorf("goroutine %d saw a different grid than goroutine %d", i, i-2)
		}
	}
}
