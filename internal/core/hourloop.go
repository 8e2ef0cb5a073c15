package core

import (
	"bytes"
	"context"
	"fmt"

	"airshed/internal/hourio"
	"airshed/internal/meteo"
	"airshed/internal/resilience"
	"airshed/internal/transport"
)

// This file is the hour loop — the paper's Figure 1 program. Each hour
// runs three stages in sequence on the driver goroutine:
//
//	input   — provider call, hourio envelope encode/decode, transport
//	          envs, substep count (prefetchHour);
//	compute — the inner step loop (and the host engine under it);
//	output  — snapshot encode and persistence, file + SnapshotFunc sink
//	          (writeOne).
//
// The paper's Section 5 overlaps these stages as a three-stage task
// pipeline; replay.go reproduces that schedule in virtual time. On the
// host an hour's I/O is milliseconds against seconds of compute, so the
// stages run inline. The loop computes physics only: it records each
// hour's work in the trace, and RunContext prices the trace once at the
// end.
//
// The trace's input volume comes from the input stage's single encode,
// whose bytes feed the real decode; its output volume comes analytically
// from hourio.SnapshotSize, which the output stage verifies against the
// bytes it actually produces.

// hourItem is one decoded hour handed from the input stage to compute:
// everything derived between the provider call and the first inner step.
type hourItem struct {
	in      *meteo.HourInput
	inBytes int64
	nsteps  int
	nsub    int
	envs    []transport.Env
}

// prefetchHour performs the input stage for one hour: provider call,
// one envelope encode (counting the recorded I/O volume), the real
// decode from those same bytes, transport envs and the substep count.
func (s *Simulation) prefetchHour(ctx context.Context, hour int) (*hourItem, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run abandoned before hour %d: %w", hour, err)
	}
	if err := resilience.Fire(resilience.PointPipePrefetch); err != nil {
		return nil, fmt.Errorf("core: inputhour %d: %w", hour, err)
	}
	in0, err := s.hourProvider(hour).HourInput(hour)
	if err != nil {
		return nil, err
	}
	// One encode yields both the recorded I/O volume and the byte stream
	// the real decode consumes — the envelope round trip is bit-exact
	// (little-endian float64), so the decoded input is physics-identical
	// to the provider's.
	var buf bytes.Buffer
	inBytes, err := hourio.WriteHourInput(&buf, in0)
	if err != nil {
		return nil, resilience.MarkTransient(fmt.Errorf("core: inputhour %d: %w", hour, err))
	}
	in, n, err := hourio.ReadHourInput(&buf)
	if err != nil {
		return nil, resilience.MarkTransient(fmt.Errorf("core: inputhour %d: %w", hour, err))
	}
	if n != inBytes {
		return nil, fmt.Errorf("core: inputhour %d: decoded %d bytes of %d encoded", hour, n, inBytes)
	}
	it := &hourItem{in: in, inBytes: inBytes}
	it.nsteps = StepsForHour(in, s.minCell, s.cfg.maxSteps())
	it.envs = s.buildTransportEnvs(in)
	it.nsub, err = maxSubsteps(s.workerTrans[0], it.envs, 3600.0/float64(it.nsteps)/2)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// writeOne performs the output stage for one hour: encode the snapshot
// (to SnapshotDir, or a byte counter), verify the analytic size the trace
// records, and feed the SnapshotFunc sink.
func (s *Simulation) writeOne(hour int, conc []float64, size int64) error {
	if err := resilience.Fire(resilience.PointPipeWrite); err != nil {
		return fmt.Errorf("core: outputhour %d: %w", hour, err)
	}
	n, err := s.writeSnapshot(hour, conc)
	if err != nil {
		return resilience.MarkTransient(fmt.Errorf("core: outputhour %d: %w", hour, err))
	}
	if n != size {
		return fmt.Errorf("core: outputhour %d wrote %d bytes, recorded %d", hour, n, size)
	}
	if s.cfg.SnapshotFunc != nil {
		if err := s.cfg.SnapshotFunc(hour, conc); err != nil {
			return fmt.Errorf("core: snapshot sink at hour %d: %w", hour, err)
		}
	}
	return nil
}

// runHours is the hour loop: input, compute and output of each hour in
// turn, on the driver goroutine.
func (s *Simulation) runHours(ctx context.Context) error {
	sh := s.cfg.Dataset.Shape
	for hour := s.cfg.StartHour; hour < s.cfg.StartHour+s.cfg.Hours; hour++ {
		it, err := s.prefetchHour(ctx, hour)
		if err != nil {
			return err
		}
		if err := s.wedgePoint(ctx, hour); err != nil {
			return err
		}

		// inputhour + pretrans: sequential work, recorded for pricing.
		ht := HourTrace{
			InBytes:       it.inBytes,
			PretransFlops: float64(12*sh.Layers*sh.Cells + 4*sh.Species*sh.Cells),
		}
		if err := s.runHourSteps(ctx, hour, it.in, it.envs, it.nsteps, it.nsub, &ht); err != nil {
			return err
		}

		// Sentinels run before the hour is recorded or handed to the
		// output stage: a NaN/negative/mass-drift hour never reaches a
		// snapshot, checkpoint or result.
		if err := s.sentinelCheck(hour, s.conc); err != nil {
			return err
		}
		ht.OutBytes = hourio.SnapshotSize(sh.Species, sh.Layers, sh.Cells)
		s.trace.Hours = append(s.trace.Hours, ht)

		hourPeak, hourPeakCell := s.recordHourPeak()
		if err := s.writeOne(hour, s.conc, ht.OutBytes); err != nil {
			return err
		}
		if s.cfg.OnHourEnd != nil {
			// The hour's physics and trace are final and its sinks have
			// returned.
			s.cfg.OnHourEnd(HourSummary{
				Hour:     hour,
				PeakO3:   hourPeak,
				PeakCell: hourPeakCell,
				Steps:    it.nsteps,
				InBytes:  it.inBytes,
				OutBytes: ht.OutBytes,
			})
		}
	}
	return nil
}
