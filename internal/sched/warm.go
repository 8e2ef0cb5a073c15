package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/debug"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/dist"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/store"
)

// Physics resolution: what of a spec's physics is already held — by a
// cached result or, with a persistent artifact store, on disk — and how a
// job executes from it. Every executed job feeds the store (hourly
// checkpoints keyed by the physics-prefix hash, one physics record per
// simulated hour, and its row — spec, prefixes, pricing — under the
// scenario hash); every new job, every stored row on its way back to being
// a result and every Trace request asks lookup before anything is
// simulated.
//
// Store layout contract (shared with scenario.Spec.PhysicsPrefixHash):
//
//   - checkpoint P(k): end-of-hour-(k-1) concentrations of the physics
//     prefix [StartHour, k), in the hourio snapshot format — directly
//     consumable by core.RestartContext;
//   - record P(k): the work trace and ozone diagnostics of hour k-1
//     alone (a one-hour store.PhysicsRecord). Stitching the records
//     P(StartHour+1 .. k) reconstructs the prefix trace without storing
//     any hour twice across overlapping prefixes;
//   - row S: the run's store.SpecManifest. With records P(StartHour+1 ..
//     EndHour) and checkpoint P(EndHour) it is the stored result; the
//     megabyte of Final exists once per physics, not once per pricing.
//
// Every store interaction is best-effort: a missing, corrupt or evicted
// artifact degrades to a shorter prefix and ultimately to a cold run,
// and store write failures never fail the job.

// held is the answer to "what do we already hold of this spec's physics":
// hour records contiguous from the run start and the concentrations at
// their end. The zero value means nothing usable.
type held struct {
	hours []*store.PhysicsRecord // hours[i] is hour StartHour+i
	// final is the end-of-run state when hours cover the whole run (shared
	// with its holder, never written), snap the hourio snapshot to resume
	// from when they stop short of it.
	final []float64
	snap  []byte
}

// lookup is the one resolver, for a normalized spec over a data set of the
// given shape. First a cached result of the same physics: its trace, peaks
// and Final were computed in this process or verified by the store on
// their way into the cache, and the artifacts on disk say nothing more.
// Else the store's hour records from the run start — a gap ends the scan,
// prefixes beyond it cannot be stitched — cut back to the longest prefix
// ending on a verified checkpoint of the right hour and shape (a missing
// checkpoint is a cheap index miss, a damaged one is already quarantined).
// traceOnly returns the records uncut and reads no checkpoint.
func (s *Scheduler) lookup(n scenario.Spec, shape dist.Shape, traceOnly bool) held {
	start, end := n.StartHour, n.EndHour()
	s.mu.Lock()
	donor := s.cache.getPhysics(physicsKey(n))
	s.mu.Unlock()
	if segs := hourRecords(donor); len(segs) == end-start && donor.Trace.Shape == shape {
		return held{hours: segs, final: donor.Final}
	}
	st := s.opts.Store
	if st == nil {
		return held{}
	}
	var segs []*store.PhysicsRecord
	for h := start + 1; h <= end; h++ {
		rec, ok := st.GetRecord(n.PhysicsPrefixHash(h))
		if !ok || len(rec.Trace.Hours) != 1 {
			break
		}
		segs = append(segs, rec)
	}
	if traceOnly {
		return held{hours: segs}
	}
	for k := start + len(segs); k > start; k-- {
		cp, ok := st.CheckpointState(n.PhysicsPrefixHash(k))
		if !ok || cp.Hour != k-1 || cp.Shape != shape {
			continue
		}
		if k == end {
			return held{hours: segs, final: cp.Conc}
		}
		return held{hours: segs[:k-start], snap: cp.Data}
	}
	return held{}
}

// Trace returns the work trace of spec's physics — all the §4 analytic
// model needs to price the run on any machine and node count. Held physics
// answers without a job; otherwise the canonical trace spec (gohost, one
// node, data mode) is submitted and awaited, so concurrent requests for
// one physics coalesce whatever machine they asked about. Errors are
// Submit's (ErrQueueFull among them), ctx's — the job runs on and is
// cached — or the job's own failure.
func (s *Scheduler) Trace(ctx context.Context, spec scenario.Spec) (*core.Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Normalize()
	ds, err := datasets.ByName(n.Dataset)
	if err != nil {
		return nil, err
	}
	if h := s.lookup(n, ds.Shape, true); len(h.hours) == n.Hours {
		tr := &core.Trace{Dataset: ds.Name, Shape: ds.Shape}
		for _, rec := range h.hours {
			tr.Hours = append(tr.Hours, rec.Trace.Hours...)
		}
		return tr, nil
	}
	n.Machine, n.Nodes, n.Mode = "gohost", 1, scenario.ModeData
	st, err := s.Submit(n)
	if err != nil {
		return nil, err
	}
	res, err := s.awaitResult(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// executeJob is one execution attempt: resolve what is held of the job's
// physics, then carry it out. warmHour is the absolute hour execution
// took over from held physics — 0 for a cold run, EndHour when nothing
// was left to simulate (a physics replay). A panicking sim worker becomes
// this attempt's error — permanent, so it fails the job with the stack
// attached — and the worker goroutine survives to take the next job.
func (s *Scheduler) executeJob(ctx context.Context, j *job) (res *core.Result, warmHour int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.counters.Panics++
			s.mu.Unlock()
			res, warmHour = nil, 0
			err = resilience.NewPanicError(r, debug.Stack())
		}
	}()
	if err := resilience.Fire(resilience.PointSchedExec); err != nil {
		return nil, 0, err
	}
	n := j.spec // normalized at admission
	cfg, err := n.Config()
	if err != nil {
		return nil, 0, err
	}
	cfg.HostWorkers = s.opts.HostWorkers
	// Stream every simulated hour to the job's watchers (SSE consumers);
	// the hook runs on the run's driver goroutine and only appends under
	// the scheduler lock, so it cannot stall the hour loop on I/O.
	cfg.OnHourEnd = func(hs core.HourSummary) {
		s.appendHourEvent(j, HourEvent{Hour: hs.Hour, PeakO3: hs.PeakO3, PeakCell: hs.PeakCell, Steps: hs.Steps})
	}

	var h held
	if st := s.opts.Store; st != nil {
		// Hourly checkpoint sink. Keys use the submitted spec's prefix hash
		// at absolute hours, so a warm-started suffix run still writes
		// correctly keyed checkpoints for the hours it does simulate.
		// Write failures are swallowed: persistence must not fail the run.
		sh := cfg.Dataset.Shape
		cfg.SnapshotFunc = func(hour int, conc []float64) error {
			_ = st.PutCheckpoint(n.PhysicsPrefixHash(hour+1), hour, sh.Species, sh.Layers, sh.Cells, conc)
			return nil
		}
		// An integrity repair holds nothing by decree: resuming would leave
		// the artifacts before the resume point unregenerated (assembling,
		// all of them), so it re-simulates the whole run, and the sink
		// above, carryOut and runJob rewrite every checkpoint, record and
		// the result — bit-identical to the originals, by determinism.
		if !j.repair {
			h = s.lookup(n, sh, false)
		}
	}
	res, err = s.carryOut(ctx, j, cfg, h)
	if err != nil && len(h.hours) > 0 && ctx.Err() == nil {
		// What was held failed on its merits; the cold run arbitrates.
		h = held{}
		res, err = s.carryOut(ctx, j, cfg, h)
	}
	if err != nil || len(h.hours) == 0 {
		return res, 0, err
	}
	return res, n.StartHour + len(h.hours), nil
}

// carryOut executes the job from h, one of three ways: assemble the result
// from held physics alone when it covers the run, resume from h.snap and
// stitch prefix and suffix when it covers a prefix, run cold when it is
// empty. Held hours stream to watchers first, as Stored events; simulated
// hours follow live through OnHourEnd, and only they become new records.
func (s *Scheduler) carryOut(ctx context.Context, j *job, cfg core.Config, h held) (*core.Result, error) {
	n := j.spec
	k := n.StartHour + len(h.hours)
	for i, rec := range h.hours {
		s.appendHourEvent(j, storedEvent(n.StartHour+i, rec))
	}
	if h.final != nil {
		return assembleResult(cfg, h.hours, h.final)
	}
	cfg.Hours = n.EndHour() - k
	var sim *core.Result // hours [k, EndHour), simulated now
	var err error
	if h.snap != nil {
		sim, err = core.RestartReaderContext(ctx, bytes.NewReader(h.snap), cfg)
	} else {
		sim, err = core.RunContext(ctx, cfg)
	}
	if err != nil || s.opts.Store == nil {
		return sim, err
	}
	// Best-effort, like every store write: one record per simulated hour,
	// keyed by the prefix hash ending just past it.
	recs := hourRecords(sim)
	for i, rec := range recs {
		_ = s.opts.Store.PutRecord(n.PhysicsPrefixHash(k+i+1), rec)
	}
	if len(h.hours) == 0 {
		return sim, nil
	}
	return assembleResult(cfg, append(h.hours, recs...), sim.Final)
}

// assembleResult builds a complete core.Result from the run's hour
// records — held ones, then any simulated just now — and its final
// concentrations, priced by core.Price exactly as a live run is.
func assembleResult(cfg core.Config, hours []*store.PhysicsRecord, final []float64) (*core.Result, error) {
	res, err := store.Assemble(hours, final)
	if err != nil {
		return nil, err
	}
	if err := core.Price(res, cfg.Machine, cfg.Nodes, cfg.Mode); err != nil {
		return nil, err
	}
	return res, nil
}

// persistRow writes a completed run's row under its scenario hash: the
// normalized spec, the prefix hashes of its hours, res's pricing.
func (s *Scheduler) persistRow(n scenario.Spec, hash string, res *core.Result) error {
	payload, err := json.Marshal(n)
	if err != nil {
		return err
	}
	phs := make([]string, 0, n.Hours)
	for k := n.StartHour + 1; k <= n.EndHour(); k++ {
		phs = append(phs, n.PhysicsPrefixHash(k))
	}
	row := &store.SpecManifest{Spec: payload, PrefixHashes: phs}
	if err := row.SetPricing(res); err != nil {
		return err
	}
	return s.opts.Store.PutManifest(hash, row)
}

// hourRecords views res's physics as one record per hour, sharing its
// slices (nil when there is no trace or the peaks do not cover it).
func hourRecords(res *core.Result) []*store.PhysicsRecord {
	if res == nil || res.Trace == nil || len(res.HourlyPeakO3) != len(res.Trace.Hours) || len(res.HourlyPeakCell) != len(res.Trace.Hours) {
		return nil
	}
	recs := make([]*store.PhysicsRecord, len(res.Trace.Hours))
	for i := range recs {
		recs[i] = &store.PhysicsRecord{
			Trace: &core.Trace{
				Dataset: res.Trace.Dataset,
				Shape:   res.Trace.Shape,
				Hours:   res.Trace.Hours[i : i+1 : i+1],
			},
			HourlyPeakO3:   res.HourlyPeakO3[i : i+1 : i+1],
			HourlyPeakCell: res.HourlyPeakCell[i : i+1 : i+1],
		}
	}
	return recs
}

// storedEvent is the stream event of an hour served from held physics
// rather than simulated now; Seq and Attempt are the stream's to set.
func storedEvent(hour int, rec *store.PhysicsRecord) HourEvent {
	return HourEvent{
		Hour:     hour,
		PeakO3:   rec.HourlyPeakO3[0],
		PeakCell: rec.HourlyPeakCell[0],
		Steps:    len(rec.Trace.Hours[0].Steps),
		Stored:   true,
	}
}
