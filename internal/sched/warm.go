package sched

import (
	"bytes"
	"context"
	"fmt"

	"airshed/internal/core"
	"airshed/internal/dist"
	"airshed/internal/scenario"
	"airshed/internal/store"
)

// The warm-start path: when the scheduler has a persistent artifact
// store, every executed job feeds it (hourly checkpoints keyed by the
// physics-prefix hash, one physics record per simulated hour, the full
// result under the scenario hash) and every new job consults it for the
// longest stored physics prefix before simulating.
//
// Store layout contract (shared with scenario.Spec.PhysicsPrefixHash):
//
//   - checkpoint P(k): end-of-hour-(k-1) concentrations of the physics
//     prefix [StartHour, k), in the hourio snapshot format — directly
//     consumable by core.RestartContext;
//   - record P(k): the work trace and ozone diagnostics of hour k-1
//     alone (a one-hour store.PhysicsRecord). Stitching the records
//     P(StartHour+1 .. k) reconstructs the prefix trace without storing
//     any hour twice across overlapping prefixes.
//
// Every store interaction is best-effort: a missing, corrupt or evicted
// artifact degrades to a shorter prefix and ultimately to a cold run,
// and store write failures never fail the job.

// executeJob runs one job: a cold run without a store, otherwise the
// warm-start path. warmHour is the absolute hour execution resumed
// from a stored checkpoint (0 = cold); wholesale reports the physics
// came entirely from stored records, with no simulation at all.
func (s *Scheduler) executeJob(ctx context.Context, j *job) (res *core.Result, warmHour int, wholesale bool, err error) {
	spec := j.spec
	cfg, err := spec.Config()
	if err != nil {
		return nil, 0, false, err
	}
	cfg.HostWorkers = s.opts.HostWorkers
	cfg.PipelineDepth = s.opts.PipelineDepth
	// Stream every simulated hour to the job's watchers (SSE consumers);
	// the hook runs on the run's driver goroutine and only appends under
	// the scheduler lock, so it cannot stall the hour loop on I/O.
	cfg.OnHourEnd = func(hs core.HourSummary) { s.appendHourEvent(j, hs, false) }
	if s.opts.Store == nil {
		return s.coldRun(ctx, spec.Normalize(), cfg)
	}
	return s.executeStored(ctx, j, spec.Normalize(), cfg)
}

// coldRun simulates the whole run and, with a store, persists every
// simulated hour's physics record.
func (s *Scheduler) coldRun(ctx context.Context, n scenario.Spec, cfg core.Config) (*core.Result, int, bool, error) {
	res, err := core.RunContext(ctx, cfg)
	if err != nil {
		return nil, 0, false, err
	}
	if s.opts.Store != nil {
		s.persistHours(n, n.StartHour, res)
	}
	return res, 0, false, nil
}

// executeStored is the store-backed execution: wire the checkpoint sink,
// find the longest warm-startable physics prefix, and fall back to a
// cold run when nothing (usable) is stored.
func (s *Scheduler) executeStored(ctx context.Context, j *job, n scenario.Spec, cfg core.Config) (*core.Result, int, bool, error) {
	st := s.opts.Store
	start, end := n.StartHour, n.EndHour()
	sh := cfg.Dataset.Shape

	// Hourly checkpoint sink. Keys use the submitted spec's prefix hash
	// at absolute hours, so a warm-started suffix run still writes
	// correctly keyed checkpoints for the hours it does simulate.
	// Write failures are swallowed: persistence must not fail the run.
	cfg.SnapshotFunc = func(hour int, conc []float64) error {
		_ = st.PutCheckpoint(n.PhysicsPrefixHash(hour+1), hour, sh.Species, sh.Layers, sh.Cells, conc)
		return nil
	}

	// Integrity repair: bypass every stored fast path and run cold. A
	// warm start would leave artifacts before the resume point
	// unregenerated (and a wholesale materialize would regenerate
	// nothing), so a repair recompute deliberately re-simulates the whole
	// run — the SnapshotFunc sink above and coldRun's persistHours then
	// rewrite every checkpoint and record, and runJob re-persists the
	// result. Determinism makes the rebuilt artifacts bit-identical to
	// the originals.
	if j.repair {
		return s.coldRun(ctx, n, cfg)
	}

	// First rung: a cached result of the same physics. Its trace, peaks
	// and Final were computed in this process or verified by the store on
	// their way into the cache; the records and checkpoint on disk say
	// nothing more. Final is shared with the donor and never written.
	s.mu.Lock()
	donor := s.cache.getPhysics(n.PhysicsPrefixHash(end))
	s.mu.Unlock()
	if segs := hourRecords(donor); len(segs) == end-start { // so donor is not nil
		if res, err := s.materialize(j, n, cfg, segs, donor.Trace.Shape, donor.Final); err == nil {
			return res, end, true, nil
		}
	}

	// Contiguous stored physics from the run start: segs[i] is hour
	// start+i. A gap ends the scan — prefixes beyond it cannot be
	// stitched into a full-run trace.
	var segs []*store.PhysicsRecord
	for h := start + 1; h <= end; h++ {
		rec, ok := st.GetRecord(n.PhysicsPrefixHash(h))
		if !ok || len(rec.Trace.Hours) != 1 {
			break
		}
		segs = append(segs, rec)
	}

	// Longest warm-startable prefix: the largest k with a verified
	// checkpoint at P(k) inside the stitchable range. Missing
	// checkpoints are cheap index misses; damaged ones were already
	// quarantined by the store's verification.
	for k := start + len(segs); k > start; k-- {
		cp, ok := st.CheckpointState(n.PhysicsPrefixHash(k))
		if !ok || cp.Hour != k-1 {
			continue
		}
		if k == end {
			res, err := s.materialize(j, n, cfg, segs, cp.Shape, cp.Conc)
			if err == nil {
				return res, k, true, nil
			}
			continue // e.g. a checkpoint of other dimensions: try shorter
		}
		res, err := s.warmRun(ctx, j, n, cfg, segs[:k-start], cp.Data, k)
		if err == nil {
			return res, k, false, nil
		}
		if ctx.Err() != nil {
			return nil, 0, false, err
		}
		break // suffix run failed on its merits; the cold run arbitrates
	}
	return s.coldRun(ctx, n, cfg)
}

// warmRun resumes the simulation from the stored checkpoint at absolute
// hour k and stitches the stored prefix physics with the simulated
// suffix into the full-run result. The stored prefix hours stream to
// watchers first (Stored events), then the suffix hours arrive live via
// the OnHourEnd hook as they simulate.
func (s *Scheduler) warmRun(ctx context.Context, j *job, n scenario.Spec, cfg core.Config, prefix []*store.PhysicsRecord, snap []byte, k int) (*core.Result, error) {
	cfg.Hours = n.EndHour() - k
	s.emitStoredHours(j, n.StartHour, prefix)
	suffix, err := core.RestartReaderContext(ctx, bytes.NewReader(snap), cfg)
	if err != nil {
		return nil, err
	}
	s.persistHours(n, k, suffix)
	return assembleResult(cfg, prefix, suffix, suffix.Final)
}

// emitStoredHours streams warm-start prefix hours to a job's watchers
// from the stored physics records (firstHour is the absolute hour of
// segs[0]).
func (s *Scheduler) emitStoredHours(j *job, firstHour int, segs []*store.PhysicsRecord) {
	for i, rec := range segs {
		if len(rec.HourlyPeakO3) != 1 || len(rec.Trace.Hours) != 1 {
			continue
		}
		s.appendHourEvent(j, core.HourSummary{
			Hour:     firstHour + i,
			PeakO3:   rec.HourlyPeakO3[0],
			PeakCell: rec.HourlyPeakCell[0],
			Steps:    len(rec.Trace.Hours[0].Steps),
			InBytes:  rec.Trace.Hours[0].InBytes,
			OutBytes: rec.Trace.Hours[0].OutBytes,
		}, true)
	}
}

// materialize reconstructs the full result from held physics alone: the
// trace and peaks from the hour records, the final concentrations from a
// verified end-of-run checkpoint or a cached result of the same physics
// (shape is theirs). No numerics are recomputed.
func (s *Scheduler) materialize(j *job, n scenario.Spec, cfg core.Config, segs []*store.PhysicsRecord, shape dist.Shape, final []float64) (*core.Result, error) {
	if shape != cfg.Dataset.Shape {
		return nil, fmt.Errorf("sched: held physics dimensions %v do not match data set %v", shape, cfg.Dataset.Shape)
	}
	res, err := assembleResult(cfg, segs, nil, final)
	if err != nil {
		return nil, err
	}
	s.emitStoredHours(j, n.StartHour, segs)
	return res, nil
}

// assembleResult builds a complete core.Result from stored prefix
// records plus an optional simulated suffix, repricing the stitched
// trace exactly as a live run would have: the data-parallel replay
// provides the node utilization (the live driver keeps the data-schedule
// utilization even in task mode), the mode's own replay the ledger.
func assembleResult(cfg core.Config, prefix []*store.PhysicsRecord, suffix *core.Result, final []float64) (*core.Result, error) {
	tr := &core.Trace{Dataset: cfg.Dataset.Name, Shape: cfg.Dataset.Shape}
	var peaks []float64
	var cells []int
	for _, rec := range prefix {
		tr.Hours = append(tr.Hours, rec.Trace.Hours...)
		peaks = append(peaks, rec.HourlyPeakO3...)
		cells = append(cells, rec.HourlyPeakCell...)
	}
	if suffix != nil {
		tr.Hours = append(tr.Hours, suffix.Trace.Hours...)
		peaks = append(peaks, suffix.HourlyPeakO3...)
		cells = append(cells, suffix.HourlyPeakCell...)
	}
	res := &core.Result{
		Trace:          tr,
		Final:          final,
		TotalSteps:     tr.TotalSteps(),
		HourlyPeakO3:   peaks,
		HourlyPeakCell: cells,
	}
	for i, v := range peaks {
		if v > res.PeakO3 {
			res.PeakO3 = v
			res.PeakO3Cell = cells[i]
		}
	}
	dr, err := core.Replay(tr, cfg.Machine, cfg.Nodes, core.DataParallel)
	if err != nil {
		return nil, err
	}
	res.NodeUtilization, res.Efficiency = dr.NodeUtilization, dr.Efficiency
	res.Ledger, res.CommSeconds, res.RedistCounts = dr.Ledger, dr.CommSeconds, dr.RedistCounts
	if cfg.Mode == core.TaskParallel {
		trr, err := core.Replay(tr, cfg.Machine, cfg.Nodes, core.TaskParallel)
		if err != nil {
			return nil, err
		}
		res.Ledger, res.CommSeconds, res.RedistCounts = trr.Ledger, trr.CommSeconds, trr.RedistCounts
	}
	return res, nil
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

// persistHours writes one physics record per simulated hour of res,
// keyed by the prefix hash ending just past that hour. firstHour is the
// absolute hour of res.Trace.Hours[0]. Best-effort.
func (s *Scheduler) persistHours(n scenario.Spec, firstHour int, res *core.Result) {
	for i, rec := range hourRecords(res) {
		_ = s.opts.Store.PutRecord(n.PhysicsPrefixHash(firstHour+i+1), rec)
	}
}
