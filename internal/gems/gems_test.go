package gems

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"airshed/internal/core"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

func validStudyJSON() string {
	return `{
		"name": "mini control study",
		"dataset": "mini",
		"machine": "t3e",
		"nodes": 4,
		"hours": 1,
		"strategies": [
			{"name": "baseline", "nox": 1, "voc": 1},
			{"name": "voc cut", "nox": 1, "voc": 0.7}
		],
		"popexp": {"enabled": true, "population": 1e6, "workers": 2},
		"stations": {"core": [20000, 20000], "edge": [38000, 38000]}
	}`
}

func TestParseStudy(t *testing.T) {
	s, err := ParseStudy(strings.NewReader(validStudyJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini control study" || len(s.Strategies) != 2 {
		t.Errorf("parsed: %+v", s)
	}
	if !s.PopExp.Enabled || s.PopExp.Workers != 2 {
		t.Errorf("popexp: %+v", s.PopExp)
	}
	// Unknown fields are rejected (catch typos in study files).
	if _, err := ParseStudy(strings.NewReader(`{"name":"x","dataste":"la"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseStudy(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStudyValidate(t *testing.T) {
	base := func() *Study {
		s, err := ParseStudy(strings.NewReader(validStudyJSON()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []func(*Study){
		func(s *Study) { s.Name = "" },
		func(s *Study) { s.Dataset = "" },
		func(s *Study) { s.Machine = "" },
		func(s *Study) { s.Nodes = 0 },
		func(s *Study) { s.Hours = 0 },
		func(s *Study) { s.OzoneThreshold = -1 },
		func(s *Study) { s.Strategies[0].Name = "" },
		func(s *Study) { s.Strategies[0].NOx = -1 },
		func(s *Study) { s.Strategies[0].ControlStartHour = -1 },
		func(s *Study) { s.PopExp.Population = 0 },
		func(s *Study) { s.PopExp.Workers = 0 },
	}
	for i, mod := range cases {
		s := base()
		mod(s)
		if s.Validate() == nil {
			t.Errorf("case %d: invalid study accepted", i)
		}
	}
}

func TestRunStudyEndToEnd(t *testing.T) {
	s, err := ParseStudy(strings.NewReader(validStudyJSON()))
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	out, err := Run(s, &progress, studyEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Strategies) != 2 {
		t.Fatalf("%d strategy outcomes", len(out.Strategies))
	}
	for _, so := range out.Strategies {
		if so.Result.PeakO3 <= 0 {
			t.Errorf("%s: no ozone", so.Strategy.Name)
		}
		if so.Exceedance == nil {
			t.Errorf("%s: no exceedance", so.Strategy.Name)
		}
		if so.Risk <= 0 {
			t.Errorf("%s: no risk index", so.Strategy.Name)
		}
		if len(so.StationO3) != 2 {
			t.Errorf("%s: station samples %v", so.Strategy.Name, so.StationO3)
		}
	}
	if !strings.Contains(progress.String(), "baseline") {
		t.Error("no progress output")
	}

	var buf bytes.Buffer
	if err := out.Report(&buf); err != nil {
		t.Fatal(err)
	}
	rep := buf.String()
	for _, want := range []string{"Strategy comparison", "baseline", "voc cut", "monitors", "core", "edge"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRunDefaultsBaselineOnly(t *testing.T) {
	s := &Study{Name: "bare", Dataset: "mini", Machine: "gohost", Nodes: 2, Hours: 1}
	out, err := Run(s, nil, studyEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Strategies) != 1 || out.Strategies[0].Strategy.Name != "baseline" {
		t.Errorf("default strategies: %+v", out.Strategies)
	}
	// No popexp: zero risk; no stations: nil samples.
	if out.Strategies[0].Risk != 0 || out.Strategies[0].StationO3 != nil {
		t.Error("unexpected optional outputs")
	}
}

// studyEngine builds a store-backed single-worker sweep engine; one
// worker makes the job order deterministic, so the baseline's
// checkpoints are on disk before the delayed-control variant runs.
func studyEngine(t *testing.T) *sweep.Engine {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Options{Workers: 1, Store: st})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return sweep.NewEngine(s)
}

// TestRunWithEngineMatchesSequential holds the study runner to the
// reference: each strategy's result must be bit-identical to a bare core.Run of its
// spec, even though the delayed-control strategy warm-starts from the
// baseline's stored checkpoint (visible in the progress log).
func TestRunWithEngineMatchesSequential(t *testing.T) {
	study := &Study{
		Name: "engine vs sequential", Dataset: "mini", Machine: "t3e",
		Nodes: 2, Hours: 2,
		Strategies: []Strategy{
			{Name: "baseline", NOx: 1, VOC: 1},
			{Name: "late NOx cut", NOx: 0.7, VOC: 1, ControlStartHour: 1},
		},
		Stations: map[string][2]float64{"core": {20000, 20000}},
	}
	var progress bytes.Buffer
	out, err := Run(study, &progress, studyEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Strategies) != len(study.Strategies) {
		t.Fatalf("study produced %d outcomes, want %d", len(out.Strategies), len(study.Strategies))
	}
	for _, so := range out.Strategies {
		cfg, err := study.Spec(so.Strategy).Config()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if so.Result.PeakO3 != want.PeakO3 || !slices.Equal(so.Result.Final, want.Final) {
			t.Errorf("%s: study result differs from a direct core.Run (peak %g vs %g)",
				so.Strategy.Name, so.Result.PeakO3, want.PeakO3)
		}
		if so.Exceedance == nil || len(so.StationO3) != 1 {
			t.Errorf("%s: analysis outputs missing", so.Strategy.Name)
		}
	}
	if !strings.Contains(progress.String(), "warm-started at hour 1") {
		t.Errorf("delayed control did not warm-start:\n%s", progress.String())
	}
}

// Duplicate strategies collapse to one sweep job but both outcomes are
// reported.
func TestRunWithEngineDuplicateStrategies(t *testing.T) {
	study := &Study{
		Name: "dups", Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 1,
		Strategies: []Strategy{
			{Name: "a", NOx: 1, VOC: 1},
			{Name: "b (same physics)", NOx: 1, VOC: 1},
		},
	}
	out, err := Run(study, nil, studyEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Strategies) != 2 {
		t.Fatalf("%d outcomes, want 2", len(out.Strategies))
	}
	if out.Strategies[0].Result.PeakO3 != out.Strategies[1].Result.PeakO3 {
		t.Error("identical strategies disagree")
	}
}

func TestRunRejectsBadStudy(t *testing.T) {
	if _, err := Run(&Study{}, nil, studyEngine(t)); err == nil {
		t.Error("empty study accepted")
	}
	s := &Study{Name: "x", Dataset: "nowhere", Machine: "t3e", Nodes: 2, Hours: 1}
	if _, err := Run(s, nil, studyEngine(t)); err == nil {
		t.Error("unknown dataset accepted")
	}
	s2 := &Study{Name: "x", Dataset: "mini", Machine: "cm5", Nodes: 2, Hours: 1}
	if _, err := Run(s2, nil, studyEngine(t)); err == nil {
		t.Error("unknown machine accepted")
	}
}
