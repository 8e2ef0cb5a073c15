package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"airshed/internal/core"
	"airshed/internal/machine"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// sampleNodes draws n distinct node counts in [4, 128], always including
// seedNodes. The range is cut into n equal strata and one value drawn from
// each, so the total replay work barely depends on the seed while the
// individual node counts do.
func sampleNodes(r *rand.Rand, n, seedNodes int) []int {
	const lo, hi = 4, 128
	out := make([]int, 0, n)
	width := float64(hi-lo+1) / float64(n)
	for i := 0; i < n; i++ {
		a := lo + int(float64(i)*width)
		b := lo + int(float64(i+1)*width)
		v := a + r.Intn(b-a)
		if seedNodes >= a && seedNodes < b {
			v = seedNodes
		}
		out = append(out, v)
	}
	return out
}

// replayBatch is how many consecutive phase A completions make one timed
// piece: two workers finish ten replays in about a quarter of a second.
const replayBatch = 10

func runStoreReplay(c *runCtx) (*outcome, error) {
	o := newOutcome()
	const seedNodes = 4
	nNodes := 20
	if c.Quick {
		nNodes = 4
	}
	seedSpec := baseSpec(c.Quick, seedNodes)
	req := sweep.Request{
		Name: "bench store-replay",
		Base: seedSpec,
		Grid: sweep.Grid{
			Machines: []string{"t3e", "t3d", "paragon"},
			Nodes:    sampleNodes(c.rng("store-replay.nodes"), nNodes, seedNodes),
			Modes:    []string{"data", "task"},
		},
	}
	specs := len(req.Grid.Machines) * len(req.Grid.Nodes) * len(req.Grid.Modes)

	// Set-up: one cold run through sched+store leaves the physics records,
	// checkpoints and one result in the seeded directory.
	t0 := time.Now()
	seeded, err := c.tempDir("seeded-store")
	if err != nil {
		return nil, err
	}
	svc, err := openService(seeded, c.Procs)
	if err != nil {
		return nil, err
	}
	js, err := svc.sched.Submit(seedSpec)
	if err == nil {
		js, err = svc.sched.Await(context.Background(), js.ID)
	}
	if err == nil && js.State != sched.Done {
		err = fmt.Errorf("seed run ended %s: %v", js.State, js.Err)
	}
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("seeding the store: %w", err)
	}
	seedTrace := js.Result.Trace
	o.set("setup_s", time.Since(t0).Seconds(), 1, "")

	// expected[i] is what spec i must report: the seed trace priced for
	// its machine, node count and mode.
	expanded, err := req.Expand()
	if err != nil {
		return nil, err
	}
	expected := make(map[string]float64, len(expanded))
	for _, sp := range expanded {
		prof, err := machine.ByName(sp.Machine)
		if err != nil {
			return nil, err
		}
		rr, err := core.Replay(seedTrace, prof, sp.Nodes, sp.CoreMode())
		if err != nil {
			return nil, err
		}
		expected[sp.Hash()] = rr.Ledger.Total
	}

	// phaseResult is what one phase leaves behind for the metrics.
	type phaseResult struct {
		wall            time.Duration
		submitted       []time.Time // every job's submission, in order
		finished        []time.Time // every executed job's completion, in order
		sched           sched.Counters
		store           store.Counters
		bytesBefore     int64
		queueMs, execMs []float64
		spanTime        time.Duration // spent rebuilding spans: the traced pass's overhead
	}
	// phase opens a scheduler over dir the way a restarted daemon would,
	// runs the 120-spec sweep once, checks every answer against the replayed
	// ledger and shuts the scheduler down again.
	phase := func(name, dir string, wantCached bool) (r phaseResult, err error) {
		svc, err := openService(dir, c.Procs)
		if err != nil {
			return r, err
		}
		defer func() {
			if cerr := svc.close(); err == nil {
				err = cerr
			}
		}()
		r.bytesBefore = svc.store.Counters().Bytes
		o.Attempted += specs
		start := time.Now()
		st, wall, err := svc.runSweep(req)
		if err != nil {
			return r, err
		}
		r.wall, r.sched, r.store = wall, svc.sched.Counters(), svc.store.Counters()
		if len(st.Jobs) != specs {
			return r, fmt.Errorf("%s: sweep expanded to %d jobs, want %d", name, len(st.Jobs), specs)
		}
		for _, jv := range st.Jobs {
			switch {
			case jv.State != sched.Done.String():
				o.fail("%s: %s ended %s: %s", name, jv.Spec, jv.State, jv.Error)
			case jv.VirtualSecs != expected[jv.Spec.Hash()]:
				o.fail("%s: %s reports %v virtual seconds, core.Replay of the seed trace gives %v", name, jv.Spec, jv.VirtualSecs, expected[jv.Spec.Hash()])
			case wantCached && !jv.Cached:
				o.fail("%s: %s was recomputed after the restart instead of served from the store", name, jv.Spec)
			}
		}
		r.submitted, r.finished = svc.jobTimes(st)
		if c.traced() {
			t := time.Now()
			root := c.Trace.add(span{Name: name + " sweep", Layer: "sweep", ID: name, Parent: -1, Start: start, End: start.Add(wall)})
			svc.jobSpans(c.Trace, st, root, &r.queueMs, &r.execMs)
			r.spanTime = time.Since(t)
		}
		return r, nil
	}

	// Both metrics are fast quartiles over small pieces of the phases, not
	// statistics of whole phases: a burst of stolen CPU then spoils the
	// pieces it falls in and leaves the rest alone. aSecs holds the seconds phase A took
	// for each batch of replayBatch consecutive completions, bMs the
	// milliseconds between consecutive submissions of phase B (the sweep
	// submits in series and a stored result is answered inside Submit, so
	// that interval is one restore).
	var aSecs, bMs []float64
	// replayOnce is one repetition on a fresh copy of the seeded directory:
	// phase A resolves every spec by physics replay, phase B reopens the
	// directory and finds every result stored.
	replayOnce := func(rep int) error {
		dir, err := c.tempDir("replay-store")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := copyTree(seeded, dir); err != nil {
			return err
		}
		a, err := phase(fmt.Sprintf("rep %d phase A", rep), dir, false)
		if err != nil {
			return err
		}
		// The sweep's prefix-seed pass submits the seeded spec first (a store
		// hit), so the spec's own job is then a cache hit.
		o.check(int(a.sched.PhysicsReplays) == specs-1 && a.sched.StoreHits == 1 && a.sched.CacheHits == 1,
			"rep %d phase A: %d physics replays, %d store hits, %d cache hits, want %d, 1, 1",
			rep, a.sched.PhysicsReplays, a.sched.StoreHits, a.sched.CacheHits, specs-1)
		b, err := phase(fmt.Sprintf("rep %d phase B", rep), dir, true)
		if err != nil {
			return err
		}
		o.check(int(b.sched.StoreHits) == specs && b.sched.CacheHits == 1 && b.sched.CacheMisses == 0,
			"rep %d phase B: %d store hits, %d cache hits, %d misses, want %d, 1, 0",
			rep, b.sched.StoreHits, b.sched.CacheHits, b.sched.CacheMisses, specs)
		for i := replayBatch; i < len(a.finished); i += replayBatch {
			aSecs = append(aSecs, a.finished[i].Sub(a.finished[i-replayBatch]).Seconds())
		}
		for i := 1; i < len(b.submitted); i++ {
			bMs = append(bMs, float64(b.submitted[i].Sub(b.submitted[i-1]))/float64(time.Millisecond))
		}

		if c.traced() {
			// Counters of both phases together; bytes written are phase A's
			// (phase B only reads), and only phase A's jobs queue and execute.
			sum := a.sched
			sum.PhysicsReplays += b.sched.PhysicsReplays
			sum.StoreHits += b.sched.StoreHits
			sum.CacheHits += b.sched.CacheHits
			sum.WarmStarts += b.sched.WarmStarts
			sum.Retries += b.sched.Retries
			stc := a.store
			stc.Hits += b.store.Hits
			stc.Misses += b.store.Misses
			setCounters(o, sum, stc, a.bytesBefore)
			o.set("sched.queue_wait_p50_ms", median(a.queueMs), len(a.queueMs), "")
			o.set("sched.exec_p50_ms", median(a.execMs), len(a.execMs), "")
			o.set("bench.trace_overhead_pct", (a.spanTime+b.spanTime).Seconds()/(a.wall+b.wall).Seconds()*100, 1, "")
		}
		return nil
	}

	if err := c.repeat(c.traced(), replayOnce); err != nil {
		return nil, err
	}
	if len(aSecs) == 0 || len(bMs) == 0 {
		return nil, fmt.Errorf("too few jobs to time: %d replay batches, %d restores", len(aSecs), len(bMs))
	}
	o.set("work_per_s", replayBatch/fastQuartile(aSecs), len(aSecs), "")
	restore := summarize(bMs)
	o.set("latency_ms", fastQuartile(bMs), restore.N, restore.tailLabel(1))
	if !c.traced() {
		return o, nil
	}
	if err := storeProbes(c, o, seedSpec, js.Result); err != nil {
		return nil, err
	}
	return o, nil
}

// storeProbes times the six artifact operations on the seed run's own
// LA-shape artifacts, on a directory backend and on a memory backend (the
// difference is fsync + rename; what remains is gob + gzip + CRC), plus
// the scenario layer's per-job costs.
func storeProbes(c *runCtx, o *outcome, spec scenario.Spec, res *core.Result) error {
	sh := res.Trace.Shape
	rec := &store.PhysicsRecord{
		Trace:          &core.Trace{Dataset: res.Trace.Dataset, Shape: sh, Hours: res.Trace.Hours[:1]},
		HourlyPeakO3:   res.HourlyPeakO3[:1],
		HourlyPeakCell: res.HourlyPeakCell[:1],
	}
	hash := spec.Hash()
	prefix := spec.PhysicsPrefixHash(spec.StartHour + 1)
	dir, err := c.tempDir("probe-store")
	if err != nil {
		return err
	}
	dirStore, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	memStore, err := store.OpenBackend(store.NewMemBackend(), 0)
	if err != nil {
		return err
	}
	for _, b := range []struct {
		st     *store.Store
		suffix string
	}{{dirStore, "_ms"}, {memStore, "_mem_ms"}} {
		st := b.st
		ops := []struct {
			name string
			fn   func() error
		}{
			{"put_checkpoint", func() error {
				return st.PutCheckpoint(prefix, spec.StartHour, sh.Species, sh.Layers, sh.Cells, res.Final)
			}},
			{"get_checkpoint", func() error {
				if _, _, ok := st.Checkpoint(prefix); !ok {
					return fmt.Errorf("checkpoint missing")
				}
				return nil
			}},
			{"put_result", func() error { return st.PutResult(hash, res) }},
			{"get_result", func() error {
				if _, ok := st.GetResult(hash); !ok {
					return fmt.Errorf("result missing")
				}
				return nil
			}},
			{"put_record", func() error { return st.PutRecord(prefix, rec) }},
			{"get_record", func() error {
				if _, ok := st.GetRecord(prefix); !ok {
					return fmt.Errorf("record missing")
				}
				return nil
			}},
		}
		for _, op := range ops {
			ds, err := probe(c, "store."+op.name+b.suffix, "store", 2, 30, op.fn)
			if err != nil {
				return err
			}
			o.setProbe("store."+op.name+b.suffix, ds, time.Millisecond)
		}
	}

	cfgs, err := probe(c, "scenario.Spec.Config", "scenario", 2, 30, func() error {
		_, err := spec.Config()
		return err
	})
	if err != nil {
		return err
	}
	o.setProbe("scenario.config_ms", cfgs, time.Millisecond)
	hashes, err := probe(c, "scenario.Spec.Hash", "scenario", 10, 200, func() error {
		if spec.Hash() != hash {
			return fmt.Errorf("hash changed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.setProbe("scenario.hash_us", hashes, time.Microsecond)
	return nil
}
