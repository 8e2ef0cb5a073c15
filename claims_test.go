package airshed

// Paper-claim verification against the real 24-hour traces. These tests
// run only when the trace cache exists (created by `go run ./cmd/benchfig
// -ne` or by the benchmarks); on a fresh checkout they skip rather than
// spend minutes rebuilding the traces inside `go test`.

import (
	"os"
	"path/filepath"
	"testing"

	"airshed/internal/core"
	"airshed/internal/figures"
	foreign "airshed/internal/foreign"
	"airshed/internal/popexp"
	"airshed/internal/species"
)

// loadRealTraces returns a figures context over the cached 24-hour LA/NE
// traces, skipping the test when the cache is absent.
func loadRealTraces(t *testing.T, needNE bool) *figures.Context {
	t.Helper()
	if _, err := os.Stat(filepath.Join("testdata", "traces", "LA24h.trace")); err != nil {
		t.Skip("24-hour trace cache not built; run `go run ./cmd/benchfig` first")
	}
	if needNE {
		if _, err := os.Stat(filepath.Join("testdata", "traces", "NE24h.trace")); err != nil {
			t.Skip("NE trace cache not built; run `go run ./cmd/benchfig -ne` first")
		}
	}
	ctx, err := figures.Load(filepath.Join("testdata", "traces"), 24, needNE)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// Every shape claim of EXPERIMENTS.md must hold on the real 24-hour run.
func TestAllPaperClaimsHold(t *testing.T) {
	ctx := loadRealTraces(t, true)
	held, total, failures, err := ctx.CheckClaims()
	if err != nil {
		t.Fatal(err)
	}
	if total < 15 {
		t.Fatalf("only %d claims evaluated", total)
	}
	if held != total {
		for _, f := range failures {
			t.Errorf("claim deviates: %s", f)
		}
	}
}

// The paper's headline number: 77 communication steps for the 24-hour LA
// run ("the communication times plotted represent 77 communication
// steps").
func TestLASeventySevenSteps(t *testing.T) {
	ctx := loadRealTraces(t, false)
	if got := ctx.LA.TotalSteps(); got != 77 {
		t.Errorf("LA 24h trace has %d steps, want the paper's 77", got)
	}
}

// Every figure builder must succeed on the real traces.
func TestAllFiguresOnRealTraces(t *testing.T) {
	ctx := loadRealTraces(t, true)
	figs, err := ctx.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) < 10 {
		t.Errorf("only %d figures built", len(figs))
	}
	abl, err := ctx.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 8 {
		t.Errorf("only %d ablations built", len(abl))
	}
}

// On the real 24-hour LA trace, the Fx optimal pipeline mapping must beat
// (or tie) the fixed group-sizing heuristic at every evaluated node count.
func TestAutoGroupsWinOnRealTrace(t *testing.T) {
	ctx := loadRealTraces(t, false)
	model, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		t.Fatal(err)
	}
	prof := IntelParagon()
	pr, err := core.NewPricer(ctx.LA)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{8, 16, 32, 64} {
		og, err := foreign.AutoGroups(pr, model, prof, p)
		if err != nil {
			t.Fatal(err)
		}
		ores, err := foreign.ReplayCoupledGroups(pr, model, prof, og, true, foreign.ScenarioA)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := foreign.GroupsFor(p)
		if err != nil {
			t.Fatal(err)
		}
		hres, err := foreign.ReplayCoupledGroups(pr, model, prof, hg, true, foreign.ScenarioA)
		if err != nil {
			t.Fatal(err)
		}
		if ores.Ledger.Total > hres.Ledger.Total*1.0001 {
			t.Errorf("p=%d: optimal %g slower than heuristic %g",
				p, ores.Ledger.Total, hres.Ledger.Total)
		}
	}
}
