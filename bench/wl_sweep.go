package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"airshed/internal/core"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// baseSpec is the scenario both sweep workloads vary: the la-cold run as a
// service request (hours 11-13), or the mini grid in quick mode.
func baseSpec(quick bool, nodes int) scenario.Spec {
	ds := "la"
	if quick {
		ds = "mini"
	}
	return scenario.Spec{Dataset: ds, Machine: "t3e", Nodes: nodes, StartHour: 11, Hours: 3}
}

// drawScales draws n distinct emission scales in [0.5, 0.95] on a 0.01
// grid, so the JSON spelling of a spec is exact.
func drawScales(r *rand.Rand, n int) []float64 {
	seen := make(map[int]bool)
	var out []float64
	for len(out) < n {
		k := 50 + r.Intn(46)
		if !seen[k] {
			seen[k] = true
			out = append(out, float64(k)/100)
		}
	}
	return out
}

// service is one scheduler over one store directory, the way airshedd
// wires them; close shuts the scheduler down.
type service struct {
	store  *store.Store
	sched  *sched.Scheduler
	engine *sweep.Engine
}

func openService(dir string, workers int) (*service, error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	s := sched.New(sched.Options{Workers: workers, GoParallel: true, Store: st})
	return &service{store: st, sched: s, engine: sweep.NewEngine(s)}, nil
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.sched.Shutdown(ctx)
}

// runSweep starts a sweep and waits for it; the wall is Engine.Start to
// Await done.
func (s *service) runSweep(req sweep.Request) (sweep.Status, time.Duration, error) {
	t0 := time.Now()
	st, err := s.engine.Start(req)
	if err != nil {
		return sweep.Status{}, 0, err
	}
	st, err = s.engine.Await(context.Background(), st.ID)
	return st, time.Since(t0), err
}

// jobSpans rebuilds one span pair per sweep job from the timestamps the
// scheduler already returns (queue wait, execution) and collects them in
// milliseconds. It returns the earliest submission: everything before it
// is the sweep's prefix-seed pass.
func (s *service) jobSpans(tr *tracer, st sweep.Status, parent int, queueMs, execMs *[]float64) time.Time {
	var first time.Time
	for i, jv := range st.Jobs {
		js, err := s.sched.Status(jv.JobID)
		if err != nil {
			continue
		}
		if first.IsZero() || js.SubmittedAt.Before(first) {
			first = js.SubmittedAt
		}
		if js.StartedAt.IsZero() { // cache or store hit: never queued
			tr.add(span{Name: "store hit " + js.ID, Layer: "sched", ID: js.ID, Parent: parent, Lane: i % 8, Start: js.SubmittedAt, End: js.FinishedAt})
			continue
		}
		*queueMs = append(*queueMs, float64(js.StartedAt.Sub(js.SubmittedAt))/float64(time.Millisecond))
		*execMs = append(*execMs, float64(js.FinishedAt.Sub(js.StartedAt))/float64(time.Millisecond))
		tr.add(span{Name: "queued " + js.ID, Layer: "sched.queue", ID: js.ID, Parent: parent, Lane: i % 8, Start: js.SubmittedAt, End: js.StartedAt})
		tr.add(span{Name: "exec " + js.ID, Layer: "sched.exec", ID: js.ID, Parent: parent, Lane: i % 8, Start: js.StartedAt, End: js.FinishedAt})
	}
	return first
}

// jobTimes returns when each of a finished sweep's jobs was submitted and
// when each job a worker executed finished, both in time order.
func (s *service) jobTimes(st sweep.Status) (submitted, finished []time.Time) {
	for _, jv := range st.Jobs {
		js, err := s.sched.Status(jv.JobID)
		if err != nil {
			continue
		}
		submitted = append(submitted, js.SubmittedAt)
		if !js.StartedAt.IsZero() {
			finished = append(finished, js.FinishedAt)
		}
	}
	byTime := func(ts []time.Time) {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	}
	byTime(submitted)
	byTime(finished)
	return submitted, finished
}

// setCounters reports the scheduler and store counters of a finished
// phase; they are exact counts and must repeat between runs.
func setCounters(o *outcome, sc sched.Counters, stc store.Counters, bytesBefore int64) {
	o.set("sched.warm_starts", float64(sc.WarmStarts), 1, "")
	o.set("sched.physics_replays", float64(sc.PhysicsReplays), 1, "")
	o.set("sched.store_hits", float64(sc.StoreHits), 1, "")
	o.set("sched.cache_hits", float64(sc.CacheHits), 1, "")
	o.set("sched.retries", float64(sc.Retries), 1, "")
	o.set("store.hits", float64(stc.Hits), 1, "")
	o.set("store.misses", float64(stc.Misses), 1, "")
	ratio := 0.0
	if stc.Hits+stc.Misses > 0 {
		ratio = float64(stc.Hits) / float64(stc.Hits+stc.Misses)
	}
	o.set("store.hit_ratio", ratio, 1, "")
	o.set("store.bytes_written", float64(stc.Bytes-bytesBefore), 1, "")
}

func runPolicySweep(c *runCtx) (*outcome, error) {
	o := newOutcome()
	r := c.rng("policy-sweep.scales")
	// The sweep runs on the mini grid in every mode. At LA scale one sweep
	// takes 9 s and a run holds two: no statistic of two samples survives a
	// neighbour's burst (their spread over ten runs of one commit was 18-25%
	// on the acceptance host, 28-36% here under bursts). A mini sweep takes
	// 0.7 s, a run holds about thirty, and their fast quartile holds still
	// (5%). Sweep, scheduler and store do the same work per job on both
	// grids; la-cold and store-replay carry the LA-scale kernels and
	// artifacts.
	req := sweep.Request{
		Name: "bench policy-sweep",
		Base: baseSpec(true, 4),
		Grid: sweep.Grid{NOxScales: drawScales(r, 2), VOCScales: drawScales(r, 2), ControlStartHours: []int{13}},
	}
	const variants, jobs = 4, 5 // 2x2 grid plus the one prefix seed

	// Set-up, five times over so setup_s is a median: one mini hour that
	// starts the shared engine and faults the kernels in (as la-cold does),
	// then a store on an empty directory with a scheduler and engine over
	// it. Each repetition below builds its own fresh service the same way.
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := warmUpHour(); err != nil {
			return nil, err
		}
		dir, err := c.tempDir("setup-store")
		if err != nil {
			return nil, err
		}
		svc, err := openService(dir, c.Procs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := svc.close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	var lastStatus sweep.Status
	// sweepOnce is one repetition on a fresh store and scheduler.
	sweepOnce := func(rep int) (time.Duration, error) {
		dir, err := c.tempDir("sweep-store")
		if err != nil {
			return 0, err
		}
		svc, err := openService(dir, c.Procs)
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		defer svc.close() //nolint:errcheck // an idle scheduler has nothing to lose

		o.Attempted += jobs
		start := time.Now()
		st, wall, err := svc.runSweep(req)
		if err != nil {
			return 0, err
		}
		lastStatus = st
		sc := svc.sched.Counters()
		bad := int(sc.Failed+sc.Cancelled) + (jobs - int(sc.Completed))
		if bad > 0 {
			o.Failed += bad
			o.Checks = append(o.Checks, fmt.Sprintf("sweep %d: %d of %d jobs not done", rep, bad, jobs))
		}
		o.check(st.Completed == variants && st.Seeds == 1, "sweep %d: %d variants done with %d seeds, want %d and 1", rep, st.Completed, st.Seeds, variants)
		o.check(st.WarmStarts == variants && sc.WarmStarts == variants, "sweep %d: %d warm starts, want %d", rep, st.WarmStarts, variants)
		o.check(sc.Retries == 0, "sweep %d: %d retries", rep, sc.Retries)
		o.check(len(st.Table) == variants && st.TableError == "", "sweep %d: policy table has %d rows (%s)", rep, len(st.Table), st.TableError)
		if !c.traced() {
			return wall, nil
		}

		// Spans and counters, built after the fact from what the
		// scheduler and store report; the time this takes is the traced
		// pass's whole overhead.
		t1 := time.Now()
		root := c.Trace.add(span{Name: "sweep " + st.ID, Layer: "sweep", ID: st.ID, Parent: -1, Start: start, End: start.Add(wall)})
		var queueMs, execMs []float64
		firstJob := svc.jobSpans(c.Trace, st, root, &queueMs, &execMs)
		c.Trace.add(span{Name: "prefix-seed pass", Layer: "sched.exec", ID: st.ID, Parent: root, Start: start, End: firstJob})
		o.set("sched.queue_wait_p50_ms", median(queueMs), len(queueMs), "")
		o.set("sched.exec_p50_ms", median(execMs), len(execMs), "")
		setCounters(o, sc, svc.store.Counters(), 0)
		var jobWall float64
		simHours := float64(st.Seeds * (req.Grid.ControlStartHours[0] - req.Base.StartHour))
		for _, jv := range st.Jobs {
			jobWall += jv.WallSecs
			if jv.WarmStartHour > 0 {
				simHours += float64(jv.Spec.EndHour() - jv.WarmStartHour)
			} else {
				simHours += float64(jv.Spec.Hours)
			}
		}
		o.set("sweep.sim_hours_ratio", simHours/float64(variants*req.Base.Hours), 1, "")
		variantPass := start.Add(wall).Sub(firstJob).Seconds()
		o.set("sweep.parallel_eff", jobWall/(float64(c.Procs)*variantPass), variants, "")
		o.set("bench.trace_overhead_pct", time.Since(t1).Seconds()/wall.Seconds()*100, 1, "")
		return wall, nil
	}

	// Untraced: sweeps until the budget is spent. Traced: one sweep, then
	// the cold reference run and the expansion probe.
	var walls []time.Duration
	err := c.repeat(c.traced(), func(rep int) error {
		wall, err := sweepOnce(rep)
		walls = append(walls, wall)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.set("setup_s", median(setups), len(setups), "")
	wallsMs := durationsTo(walls, time.Millisecond)
	ms := summarize(wallsMs)
	o.set("latency_ms", fastQuartile(wallsMs), ms.N, ms.tailLabel(1))
	o.set("work_per_s", jobs*1000/fastQuartile(wallsMs), ms.N, "")
	if !c.traced() {
		return o, nil
	}

	// One variant answered cold must give the warm-started answer exactly.
	o.Attempted++
	probeJob := lastStatus.Jobs[c.rng("policy-sweep.coldcheck").Intn(len(lastStatus.Jobs))]
	coldSpan := c.Trace.begin("core.Run cold reference", "core", probeJob.JobID, -1)
	cold, err := peakOfColdRun(probeJob.Spec)
	c.Trace.end(coldSpan)
	if err != nil {
		return nil, err
	}
	if cold != probeJob.PeakO3 {
		o.fail("variant %s: warm-started peak O3 %v, cold run %v", probeJob.Spec, probeJob.PeakO3, cold)
	}

	grid := sweep.Request{Base: req.Base, Grid: sweep.Grid{
		Machines:  []string{"t3e", "t3d", "paragon"},
		Nodes:     []int{4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 112, 128},
		Modes:     []string{"data", "task"},
		NOxScales: []float64{0.5, 0.6, 0.7, 0.8},
		VOCScales: []float64{0.6, 0.9},
	}}
	expands, err := probe(c, "sweep.Request.Expand 768 specs", "sweep", 2, 30, func() error {
		specs, err := grid.Expand()
		if err == nil && len(specs) != 768 {
			err = fmt.Errorf("expanded to %d specs, want 768", len(specs))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	o.setProbe("sweep.expand_us", expands, time.Microsecond)
	return o, nil
}

// peakOfColdRun answers one variant with a plain core.Run, the reference
// the sweep's warm-started answer must equal.
func peakOfColdRun(spec scenario.Spec) (float64, error) {
	cfg, err := spec.Config()
	if err != nil {
		return 0, err
	}
	cfg.GoParallel = true
	res, err := core.Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.PeakO3, nil
}
