package main

import (
	"fmt"
	"path/filepath"
	"time"

	"airshed/internal/core"
	"airshed/internal/dist"
	"airshed/internal/figures"
	"airshed/internal/machine"
	"airshed/internal/perfmodel"
)

// wantClaims is the number of shape claims EXPERIMENTS.md records; every
// iteration must hold all of them.
const wantClaims = 19

func runReplayFigs(c *runCtx) (*outcome, error) {
	o := newOutcome()
	traces := filepath.Join(c.Root, "testdata", "traces")
	var ctx *figures.Context
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if ctx, err = figures.Load(traces, 24, true); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(setups), len(setups), "")

	// figset is one full set: every figure, every ablation, every claim.
	// Each of the three calls is a span under the set's span.
	var allD, ablD, claimD []time.Duration
	figset := func(tr *tracer, id string) error {
		root := tr.begin("figure set "+id, "bench", id, -1)
		defer tr.end(root)
		t0 := time.Now()
		figs, err := ctx.All()
		t1 := time.Now()
		if err != nil {
			return err
		}
		abl, err := ctx.Ablations()
		t2 := time.Now()
		if err != nil {
			return err
		}
		held, total, failures, err := ctx.CheckClaims()
		t3 := time.Now()
		if err != nil {
			return err
		}
		tr.add(span{Name: "figures.Context.All", Layer: "figures", ID: id, Parent: root, Start: t0, End: t1})
		tr.add(span{Name: "figures.Context.Ablations", Layer: "figures", ID: id, Parent: root, Start: t1, End: t2})
		tr.add(span{Name: "figures.Context.CheckClaims", Layer: "figures", ID: id, Parent: root, Start: t2, End: t3})
		if tr != nil {
			allD, ablD, claimD = append(allD, t1.Sub(t0)), append(ablD, t2.Sub(t1)), append(claimD, t3.Sub(t2))
		}
		if len(figs) < 10 || len(abl) != 8 {
			return fmt.Errorf("%d figures and %d ablations built, want at least 10 and exactly 8", len(figs), len(abl))
		}
		if held != wantClaims || total != wantClaims {
			return fmt.Errorf("claims %d/%d, want %d/%d: %v", held, total, wantClaims, wantClaims, failures)
		}
		return nil
	}
	// loop runs figure sets for d and returns the per-set walls.
	loop := func(d time.Duration, tr *tracer) []time.Duration {
		var walls []time.Duration
		for i, start := 0, time.Now(); ; i++ {
			o.Attempted++
			t0 := time.Now()
			if err := figset(tr, fmt.Sprintf("set%d", i)); err != nil {
				o.fail("set %d: %v", i, err)
			}
			walls = append(walls, time.Since(t0))
			if time.Since(start) >= d {
				return walls
			}
		}
	}
	if err := figset(nil, "warm"); err != nil {
		return nil, err
	}

	if !c.traced() {
		walls := durationsTo(loop(c.Budget, nil), time.Millisecond)
		ms := summarize(walls)
		o.set("latency_ms", fastQuartile(walls), ms.N, ms.tailLabel(1))
		o.set("work_per_s", 1000/fastQuartile(walls), ms.N, "")
		return o, nil
	}

	third := c.Budget / 3
	untraced := loop(third, nil)
	tracedWalls := loop(third, c.Trace)
	o.set("bench.trace_overhead_pct", overheadPct(
		median(durationsTo(untraced, time.Millisecond)), median(durationsTo(tracedWalls, time.Millisecond))), len(tracedWalls), "")
	o.setProbe("figures.all_ms", allD, time.Millisecond)
	o.setProbe("figures.ablations_ms", ablD, time.Millisecond)
	o.setProbe("figures.claims_ms", claimD, time.Millisecond)

	// Unit costs of the layers every figure is built from.
	t3e := machine.CrayT3E()
	replays, err := probe(c, "core.Replay LA24h t3e/64", "core", 5, 100, func() error {
		_, err := core.Replay(ctx.LA, t3e, 64, core.DataParallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.setProbe("core.replay_la24_us", replays, time.Microsecond)
	plans, err := probe(c, "dist.NewPlan D_Chem->D_Repl p=64", "dist", 5, 100, func() error {
		_, err := dist.NewPlan(ctx.LA.Shape, dist.DChem, dist.DRepl, 64, 8)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.setProbe("dist.plan_us", plans, time.Microsecond)
	preds, err := probe(c, "perfmodel.Predict LA24h t3e/64", "perfmodel", 5, 100, func() error {
		_, err := perfmodel.Predict(ctx.LA, t3e, 64)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.setProbe("perfmodel.predict_us", preds, time.Microsecond)
	return o, nil
}
