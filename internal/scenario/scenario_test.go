package scenario

import (
	"reflect"
	"strings"
	"testing"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/grid"
)

func validSpec() Spec {
	return Spec{Dataset: "mini", Machine: "t3e", Nodes: 4, Hours: 2}
}

func TestNormalizeDefaults(t *testing.T) {
	n := Spec{Dataset: " LA ", Machine: "T3E", Nodes: 4, Hours: 24}.Normalize()
	if n.Dataset != "la" || n.Machine != "t3e" {
		t.Errorf("keys not canonicalised: %+v", n)
	}
	if n.Mode != ModeData {
		t.Errorf("empty mode should normalize to %q, got %q", ModeData, n.Mode)
	}
	if n.NOxScale != 1.0 || n.VOCScale != 1.0 {
		t.Errorf("zero scales should normalize to 1.0, got nox=%g voc=%g", n.NOxScale, n.VOCScale)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the error; empty = valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"valid upper-case", func(s *Spec) { s.Dataset, s.Machine = "LA", "T3E" }, ""},
		{"valid task", func(s *Spec) { s.Mode, s.Nodes = "task", 4 }, ""},
		{"missing dataset", func(s *Spec) { s.Dataset = "" }, "missing dataset"},
		{"unknown dataset", func(s *Spec) { s.Dataset = "mars" }, "unknown dataset"},
		{"missing machine", func(s *Spec) { s.Machine = "" }, "missing machine"},
		{"unknown machine", func(s *Spec) { s.Machine = "cm5" }, "unknown machine"},
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }, "nodes must be positive"},
		{"negative hours", func(s *Spec) { s.Hours = -1 }, "hours must be positive"},
		{"negative start", func(s *Spec) { s.StartHour = -2 }, "start_hour"},
		{"bad mode", func(s *Spec) { s.Mode = "vector" }, "unknown mode"},
		{"task too small", func(s *Spec) { s.Mode, s.Nodes = "task", 2 }, "at least 3 nodes"},
		{"negative scale", func(s *Spec) { s.NOxScale = -1 }, "emission scales"},
		{"negative tol", func(s *Spec) { s.ChemRelTol = -1e-3 }, "chem_rel_tol"},
		{"negative cap", func(s *Spec) { s.MaxStepsPerHour = -1 }, "max_steps_per_hour"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(&s)
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
			if err != nil && strings.ContainsRune(err.Error(), '\n') {
				t.Errorf("validation error should be one line: %q", err.Error())
			}
		})
	}
}

func TestHashStableUnderNormalization(t *testing.T) {
	a := Spec{Dataset: "LA", Machine: "T3E", Nodes: 8, Hours: 24}
	b := Spec{Dataset: "la", Machine: "t3e", Nodes: 8, Hours: 24, Mode: "data", NOxScale: 1.0, VOCScale: 1.0}
	if a.Hash() != b.Hash() {
		t.Errorf("semantically identical specs hash differently:\n a=%s\n b=%s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash should be hex sha256 (64 chars), got %d", len(a.Hash()))
	}
}

func TestHashDistinguishesFields(t *testing.T) {
	base := validSpec()
	muts := []func(*Spec){
		func(s *Spec) { s.Dataset = "la" },
		func(s *Spec) { s.Machine = "paragon" },
		func(s *Spec) { s.Nodes = 8 },
		func(s *Spec) { s.Hours = 3 },
		func(s *Spec) { s.StartHour = 1 },
		func(s *Spec) { s.Mode = "task" },
		func(s *Spec) { s.NOxScale = 0.5 },
		func(s *Spec) { s.VOCScale = 0.5 },
		func(s *Spec) { s.ChemRelTol = 1e-2 },
		func(s *Spec) { s.MaxStepsPerHour = 3 },
	}
	seen := map[string]int{base.Hash(): -1}
	for i, mut := range muts {
		s := base
		mut(&s)
		h := s.Hash()
		if j, dup := seen[h]; dup {
			t.Errorf("mutation %d collides with %d", i, j)
		}
		seen[h] = i
	}
}

func TestConfigBuilds(t *testing.T) {
	s := Spec{Dataset: "mini", Machine: "gohost", Nodes: 3, Hours: 1, Mode: "task", ChemRelTol: 1e-2, MaxStepsPerHour: 4}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dataset == nil || cfg.Dataset.Name != "Mini" {
		t.Errorf("wrong dataset: %+v", cfg.Dataset)
	}
	if cfg.Machine == nil || cfg.Machine.Name != "Go host" {
		t.Errorf("wrong machine: %+v", cfg.Machine)
	}
	if cfg.Mode != core.TaskParallel {
		t.Errorf("mode = %v, want task-parallel", cfg.Mode)
	}
	if cfg.Chemistry == nil || cfg.Chemistry.RelTol != 1e-2 {
		t.Errorf("chemistry override not applied: %+v", cfg.Chemistry)
	}
	if cfg.MaxStepsPerHour != 4 {
		t.Errorf("MaxStepsPerHour = %d, want 4", cfg.MaxStepsPerHour)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("built config does not validate: %v", err)
	}
}

func TestConfigAppliesEmissionScales(t *testing.T) {
	s := validSpec()
	s.NOxScale, s.VOCScale = 0.5, 0.25
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	scn := cfg.Dataset.Provider.Scenario()
	if scn.NOxScale != 0.5 || scn.VOCScale != 0.25 {
		t.Errorf("scales not applied: nox=%g voc=%g", scn.NOxScale, scn.VOCScale)
	}
	if !strings.Contains(scn.Name, "NOx x0.50") {
		t.Errorf("scenario name should record the controls, got %q", scn.Name)
	}
}

// Control and source-group variants replace Provider on their own copy of
// the memoised dataset: the base provider every later Config shares must
// still carry the untouched inventory, and share the variant's grid.
func TestConfigVariantsLeaveSharedDatasetAlone(t *testing.T) {
	fresh, err := datasets.LA()
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Provider.Scenario()

	base := Spec{Dataset: "la", Machine: "t3e", Nodes: 4, Hours: 1}
	ctl, delayed, group := base, base, base
	ctl.NOxScale, ctl.VOCScale = 0.5, 0.25
	delayed.NOxScale, delayed.ControlStartHour = 0.5, 1
	delayed.Hours = 2
	group.SourceGroups, group.SourceGroup, group.GroupNOxScale = 4, 1, 0.5
	var grids []*grid.Grid
	for _, sp := range []Spec{ctl, delayed, group, base} {
		cfg, err := sp.Config()
		if err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		grids = append(grids, cfg.Dataset.Grid())
		after, err := datasets.ByName("la")
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Provider.Scenario(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after Config of %v the shared LA scenario is %+v, want a fresh LA()'s %+v", sp, got, want)
		}
		if sp == base && cfg.Dataset.Provider != after.Provider {
			t.Error("the base spec did not get the shared provider")
		}
		if sp != base && sp != delayed && cfg.Dataset.Provider == after.Provider {
			t.Errorf("%v runs on the base provider", sp)
		}
	}
	for _, g := range grids[1:] {
		if g != grids[0] {
			t.Error("Config built a second LA grid")
		}
	}
}

func TestConfigRejectsInvalid(t *testing.T) {
	if _, err := (Spec{Dataset: "mini", Machine: "t3e", Nodes: 0, Hours: 1}).Config(); err == nil {
		t.Fatal("Config should reject an invalid spec")
	}
}

// TestScaledRunDiffers is a smoke check that the emission-control knobs
// reach the physics: halving NOx must change the ozone answer.
func TestScaledRunDiffers(t *testing.T) {
	base := validSpec()
	base.Hours = 1
	scaled := base
	scaled.NOxScale = 0.5
	run := func(s Spec) float64 {
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakO3
	}
	if a, b := run(base), run(scaled); a == b {
		t.Errorf("NOx x0.5 did not change peak O3 (%g)", a)
	}
}

// PrefixBoundaries is the rule sweep seeding and fleet packing share: the
// full run, plus the control-activation hour only when it falls strictly
// inside the run.
func TestPrefixBoundaries(t *testing.T) {
	ctrl := Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, StartHour: 2, Hours: 4, NOxScale: 0.5}
	for _, c := range []struct {
		name         string
		controlStart int
		want         []int
	}{
		{"whole-run controls", 0, []int{6}},
		{"activation at the start", 2, []int{6}},
		{"activation inside", 4, []int{6, 4}},
		{"activation at the end", 6, []int{6}},
		{"activation past the end", 9, []int{6}},
	} {
		s := ctrl
		s.ControlStartHour = c.controlStart
		if got := s.PrefixBoundaries(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: boundaries %v, want %v", c.name, got, c.want)
		}
	}
}
