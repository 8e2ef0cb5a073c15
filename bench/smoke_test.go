package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickWorkloads drives every workload in -quick mode, both passes,
// and checks the driver's result line carries every catalogued metric. It
// asserts nothing about speed.
func TestQuickWorkloads(t *testing.T) {
	t.Cleanup(cleanup)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/end-to-end"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if traced && testing.Short() {
					t.Skip("traced pass skipped in -short mode")
				}
				if w.Name == "serve-hot" {
					if testing.Short() {
						t.Skip("serve-hot builds and starts airshedd; skipped in -short mode")
					}
					if _, err := exec.LookPath("go"); err != nil {
						t.Skip("go is not on PATH, cannot build airshedd")
					}
				}
				rec, _, err := measure(w.Name, options{Seed: 1, Seconds: 1, Quick: true, Traced: traced})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d checks=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Checks)
				}
				line, err := driverLine(rec)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("driver line lacks a top-level key: %s", line)
				}
				want := make(map[string]string)
				if traced {
					for _, d := range perLayer {
						want[d.Name] = d.Unit
					}
				} else {
					for _, d := range endToEnd {
						want[d.Name] = d.Unit
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics reported, catalogue has %d", len(got.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := got.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
					case !traced && !(*m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, must be positive", name, *m.Value)
					}
				}
				if traced {
					// Every metric whose home is this workload was measured.
					for _, d := range perLayer {
						if d.Home == w.Name && rec.Metrics[d.Name].N == 0 {
							t.Errorf("%s is homed on %s but was not measured", d.Name, w.Name)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps /BENCHMARK.json and catalog.go
// saying the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue %q (or the reasons differ)", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := bj.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound == nil || *g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, g, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		g := bj.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != nil {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, g, d.metricDef)
		}
	}
	for _, a := range issueAliases {
		if workloadByName(a.Workload) == nil {
			t.Errorf("alias %s names unknown workload %s", a.Name, a.Workload)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) on these ten values gives
	// [2.75, 5.5, 8.25]; on four values [1.25, 2.5, 3.75].
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles of 1..4 = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {39, 0}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != (tc.want != 0) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, got, ok, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add(span{Name: "run", Layer: "core", Parent: -1, Start: at(0), End: at(100)})
	// Two overlapping children cover [10, 60]; one reaches past the parent.
	tr.add(span{Name: "a", Layer: "chem", Parent: root, Start: at(10), End: at(50)})
	tr.add(span{Name: "b", Layer: "chem", Parent: root, Start: at(40), End: at(60)})
	tr.add(span{Name: "c", Layer: "io", Parent: root, Start: at(90), End: at(120)})
	self := tr.selfTimes()
	if got := self["core"]; got != 40*time.Millisecond {
		t.Errorf("core self time %v, want 40ms", got)
	}
	if got := self["chem"]; got != 60*time.Millisecond {
		t.Errorf("chem self time %v, want 60ms", got)
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", "y", "", -1); i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
	nilTracer.end(-1)
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name  string
		new   []float64
		noisy bool
		want  string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, false, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "REGRESSED"},
		{"slower on a loaded machine", []float64{120, 121, 119, 120, 122}, true, "unresolved (noisy run)"},
		{"all faster", []float64{80, 81, 79, 80, 82}, false, "improved"},
		{"wide", []float64{80, 130, 100, 140, 90}, false, "unresolved"},
	} {
		if got := verdict(lower, steady, tc.new, tc.noisy); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
