package core

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"airshed/internal/datasets"
	"airshed/internal/machine"
)

// engineConfigs is the execution matrix of the host-engine determinism
// guarantee: the engine at one worker (every chunk in index order on one
// goroutine — the serial reference, itself pinned by testdata/golden.json
// in the module root), at 2 workers and on the shared GOMAXPROCS engine
// must all produce byte-identical results — warm-start assembly in
// internal/sched/warm.go depends on it.
func engineConfigs() []struct {
	name        string
	hostWorkers int
} {
	return []struct {
		name        string
		hostWorkers int
	}{
		{"engine-1", 1},
		{"engine-2", 2},
		{fmt.Sprintf("engine-shared-%d", runtime.GOMAXPROCS(0)), 0},
	}
}

// compareResults demands byte-identical Results: concentrations, ledger,
// per-hour per-step work records, diagnostics — everything.
func compareResults(t *testing.T, name string, base, got *Result) {
	t.Helper()
	for i := range base.Final {
		if got.Final[i] != base.Final[i] {
			t.Fatalf("%s: Final[%d] = %v, want %v", name, i, got.Final[i], base.Final[i])
		}
	}
	if !reflect.DeepEqual(got.Ledger, base.Ledger) {
		t.Errorf("%s: ledger diverged:\n got %+v\nwant %+v", name, got.Ledger, base.Ledger)
	}
	for h := range base.Trace.Hours {
		bh, gh := base.Trace.Hours[h], got.Trace.Hours[h]
		for s := range bh.Steps {
			if !reflect.DeepEqual(gh.Steps[s].LayerFlops, bh.Steps[s].LayerFlops) {
				t.Errorf("%s: hour %d step %d LayerFlops diverged", name, h, s)
			}
			if !reflect.DeepEqual(gh.Steps[s].CellFlops, bh.Steps[s].CellFlops) {
				t.Errorf("%s: hour %d step %d CellFlops diverged", name, h, s)
			}
		}
	}
	if !reflect.DeepEqual(got, base) {
		t.Errorf("%s: Result diverged from baseline in a field not itemised above", name)
	}
}

// runMatrix runs cfg under every execution configuration and compares
// everything to the first configuration's result.
func runMatrix(t *testing.T, cfg Config, configs []struct {
	name        string
	hostWorkers int
}) {
	var base *Result
	for _, ec := range configs {
		c := cfg
		c.HostWorkers = ec.hostWorkers
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if base == nil {
			base = res
			continue
		}
		compareResults(t, ec.name, base, res)
	}
}

// TestEngineDeterminismMini runs the full execution matrix over the Mini
// data set across a night-to-peak daytime window, at an uneven node
// decomposition (P=3 over 5 layers and 52 cells exercises ragged block
// ownership).
func TestEngineDeterminismMini(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	hours := 7
	if os.Getenv("AIRSHED_DETERMINISM_FULL") != "" {
		hours = 24
	}
	runMatrix(t, Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 3, StartHour: 7, Hours: hours},
		engineConfigs())
}

// TestEngineDeterminismMiniSingleNode covers the paper's sequential
// baseline (P=1), where the engine is the only source of parallelism.
func TestEngineDeterminismMiniSingleNode(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	runMatrix(t, Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, Hours: 3, StartHour: 11},
		engineConfigs())
}

// TestEngineDeterminismLA runs the real LA basin at peak chemistry load
// (daytime, where adaptive substepping is most active). The default
// compares engine-1 against the shared engine — the 2-worker column is
// covered on Mini above — and AIRSHED_DETERMINISM_FULL=1 runs the full
// 24-hour day under the whole matrix; -short skips the LA run entirely.
func TestEngineDeterminismLA(t *testing.T) {
	if testing.Short() {
		t.Skip("LA determinism matrix skipped in short mode")
	}
	ds, err := datasets.LA()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 4, StartHour: 12, Hours: 1}
	configs := engineConfigs()
	if os.Getenv("AIRSHED_DETERMINISM_FULL") != "" {
		cfg.StartHour, cfg.Hours = 0, 24
	} else {
		configs = append(configs[:1:1], configs[2])
	}
	runMatrix(t, cfg, configs)
}
