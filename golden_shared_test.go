package airshed

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"airshed/internal/core"
	"airshed/internal/scenario"
)

// Two runs at once on configs from scenario.Spec.Config — one memoised
// mini dataset, shared grid, mechanism and provider — must each reproduce
// their golden entry: sharing is invisible to the numerics.
func TestGoldenResultsSharedDataset(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenRun{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cases := map[string]scenario.Spec{
		"mini/t3e/4/h11-12": {Dataset: "mini", Machine: "t3e", Nodes: 4, StartHour: 11, Hours: 2},
		"mini/t3e/1/h11-13": {Dataset: "Mini", Machine: "t3e", Nodes: 1, StartHour: 11, Hours: 3},
	}
	var wg sync.WaitGroup
	for name, spec := range cases {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string, cfg core.Config) {
			defer wg.Done()
			res, err := core.Run(cfg)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if got := fingerprint(res); got != want[name] {
				t.Errorf("%s on the shared dataset: results moved:\n got  %+v\n want %+v", name, got, want[name])
			}
		}(name, cfg)
	}
	wg.Wait()
}
