package airshed

// Golden results: bit-exact fingerprints of two fixed runs, recorded
// once and compared on every test run, so that kernel and driver
// refactors happen under a net. Re-record (only when a change is MEANT
// to alter results) with `go test -run TestGoldenResults -update .`.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this build's results")

// goldenRun is the fingerprint of one run. The floats are written by
// encoding/json in shortest round-trip form, so == is a bit comparison.
type goldenRun struct {
	FinalSHA256       string  `json:"final_sha256"`
	TotalSteps        int     `json:"total_steps"`
	SumChemFlops      float64 `json:"sum_chem_flops"`
	SumTransportFlops float64 `json:"sum_transport_flops"`
	LedgerTotal       float64 `json:"ledger_total"`
}

var goldenCases = []struct {
	name      string
	dataset   func() (*Dataset, error)
	nodes     int
	startHour int
	hours     int
	long      bool
}{
	{"mini/t3e/4/h11-12", Mini, 4, 11, 2, false},
	{"la/t3e/8/h11-13", LA, 8, 11, 3, true}, // the bench's la-cold spec
	// The two shapes of internal/core's determinism matrices, recorded
	// from the serial hour loop and the per-node execution path before
	// both were deleted: these entries are that reference now.
	{"mini/t3e/3/h7-13", Mini, 3, 7, 7, false},   // ragged P=3 decomposition
	{"mini/t3e/1/h11-13", Mini, 1, 11, 3, false}, // the P=1 paper baseline
}

// goldenHosts are the host mappings that must each reproduce an entry:
// the engine at one worker (the serial reference) and the shared engine.
// -update records from the first one a case runs. The paper-scale case
// runs on the shared engine only, as the bench's la-cold does.
var goldenHosts = []struct {
	name        string
	hostWorkers int
}{
	{"engine-1", 1},
	{"engine-shared", 0},
}

func fingerprint(res *Result) goldenRun {
	h := sha256.New()
	var b [8]byte
	for _, x := range res.Final {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return goldenRun{
		FinalSHA256:       hex.EncodeToString(h.Sum(nil)),
		TotalSteps:        res.TotalSteps,
		SumChemFlops:      res.Trace.SumChemFlops(),
		SumTransportFlops: res.Trace.SumTransportFlops(),
		LedgerTotal:       res.Ledger.Total,
	}
}

func TestGoldenResults(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	want := map[string]goldenRun{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}

	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if gc.long && testing.Short() {
				t.Skip("paper-scale run; skipped in -short")
			}
			ds, err := gc.dataset()
			if err != nil {
				t.Fatal(err)
			}
			hosts := goldenHosts
			if gc.long {
				hosts = hosts[len(hosts)-1:]
			}
			for _, host := range hosts {
				res, err := Run(Config{
					Dataset: ds, Machine: CrayT3E(), Nodes: gc.nodes,
					StartHour: gc.startHour, Hours: gc.hours,
					HostWorkers: host.hostWorkers,
				})
				if err != nil {
					t.Fatalf("%s: %v", host.name, err)
				}
				got := fingerprint(res)
				if *updateGolden {
					want[gc.name] = got
					return
				}
				w, ok := want[gc.name]
				if !ok {
					t.Fatalf("%s has no entry %q; record it with -update", path, gc.name)
				}
				if got != w {
					t.Errorf("%s: results moved:\n got  %+v\n want %+v", host.name, got, w)
				}
			}
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
