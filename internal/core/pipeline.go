package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"airshed/internal/hourio"
	"airshed/internal/meteo"
	"airshed/internal/resilience"
	"airshed/internal/transport"
	"airshed/internal/vm"
)

// This file is the hour loop — the paper's Figure 1 program — and its
// two I/O stages. Each hour the driver pulls a decoded hourItem from the
// input stage, computes, and pushes a writeJob to the output stage:
//
//	input   — provider call, hourio envelope encode/decode, transport
//	          envs, substep count (prefetchHour);
//	compute — the inner step loop on the driver goroutine (and the host
//	          engine under it);
//	output  — snapshot encode and persistence, file + SnapshotFunc sink
//	          (writeOne).
//
// Config.PipelineDepth is the mapping directive, not a second program:
// at depth 0 both stages are called inline on the driver goroutine; at
// depth > 0 they run on their own goroutines — the wall-clock
// counterpart of the Section 5 three-stage task pipeline that replay.go
// models in virtual time — decoding hour i+1 and persisting hour i−1
// while hour i computes.
//
// The determinism contract: every virtual-machine interaction
// (ChargeIO, ChargeCompute, Barrier) stays on the driver goroutine in
// one fixed order with the same values at any depth. The stages move
// only wall-clock work. Input volume is charged from the input stage's
// single encode, whose bytes feed the real decode; output volume is
// charged analytically via hourio.SnapshotSize, which the output stage
// verifies against the bytes it actually produces. golden.json and the
// pipeline determinism matrix pin results, ledgers and traces.

// pipelineStats holds the process-wide streaming-pipeline gauges served
// by airshedd's /metrics.
var pipelineStats struct {
	activeRuns  atomic.Int64  // pipelined runs in flight
	depth       atomic.Int64  // configured depth of the latest pipelined run
	prefetched  atomic.Uint64 // hours delivered by the prefetch stage
	hits        atomic.Uint64 // compute found the next hour already decoded
	stalls      atomic.Uint64 // compute had to wait on the prefetch slot
	written     atomic.Uint64 // hours persisted by the async writer
	writerQueue atomic.Int64  // snapshots queued or being written
}

// PipelineStats is a snapshot of the streaming-pipeline gauges.
type PipelineStats struct {
	// ActiveRuns counts pipelined runs currently in flight and Depth is
	// the configured lookahead of the most recently started one.
	ActiveRuns int64
	Depth      int64
	// PrefetchedHours counts hours the prefetch stage delivered;
	// PrefetchHits of those were ready before compute asked (full
	// overlap), PrefetchStalls made compute wait (input-bound hours).
	PrefetchedHours uint64
	PrefetchHits    uint64
	PrefetchStalls  uint64
	// WrittenHours counts snapshots the async writer persisted and
	// WriterQueue the snapshots queued or in flight right now.
	WrittenHours uint64
	WriterQueue  int64
}

// ReadPipelineStats returns the current streaming-pipeline gauges.
func ReadPipelineStats() PipelineStats {
	return PipelineStats{
		ActiveRuns:      pipelineStats.activeRuns.Load(),
		Depth:           pipelineStats.depth.Load(),
		PrefetchedHours: pipelineStats.prefetched.Load(),
		PrefetchHits:    pipelineStats.hits.Load(),
		PrefetchStalls:  pipelineStats.stalls.Load(),
		WrittenHours:    pipelineStats.written.Load(),
		WriterQueue:     pipelineStats.writerQueue.Load(),
	}
}

// hourItem is one decoded hour handed from the input stage to compute:
// everything derived between the provider call and the first inner step.
// An input failure travels in-band via err so compute surfaces it at the
// hour it belongs to, however far ahead the stage runs.
type hourItem struct {
	in      *meteo.HourInput
	inBytes int64
	nsteps  int
	nsub    int
	envs    []transport.Env
	err     error
}

// prefetchHour performs the input stage for one hour: provider call,
// one envelope encode (counting the charged I/O volume), the real
// decode from those same bytes, transport envs and the substep count on
// the stage's dedicated operator.
func (s *Simulation) prefetchHour(ctx context.Context, op *transport.Operator2D, hour int) *hourItem {
	it := &hourItem{}
	fail := func(err error) *hourItem {
		it.err = err
		return it
	}
	if err := ctx.Err(); err != nil {
		return fail(fmt.Errorf("core: run abandoned before hour %d: %w", hour, err))
	}
	if err := resilience.Fire(resilience.PointPipePrefetch); err != nil {
		return fail(fmt.Errorf("core: inputhour %d: %w", hour, err))
	}
	in0, err := s.hourProvider(hour).HourInput(hour)
	if err != nil {
		return fail(err)
	}
	// One encode yields both the charged I/O volume and the byte stream
	// the real decode consumes — the envelope round trip is bit-exact
	// (little-endian float64), so the decoded input is physics-identical
	// to the provider's.
	var buf bytes.Buffer
	inBytes, err := hourio.WriteHourInput(&buf, in0)
	if err != nil {
		return fail(resilience.MarkTransient(fmt.Errorf("core: inputhour %d: %w", hour, err)))
	}
	it.inBytes = inBytes
	if err := s.throttleIO(ctx, inBytes); err != nil {
		return fail(err)
	}
	in, n, err := hourio.ReadHourInput(&buf)
	if err != nil {
		return fail(resilience.MarkTransient(fmt.Errorf("core: inputhour %d: %w", hour, err)))
	}
	if n != inBytes {
		return fail(fmt.Errorf("core: inputhour %d: decoded %d bytes of %d encoded", hour, n, inBytes))
	}
	it.in = in
	it.nsteps = StepsForHour(in, s.minCell, s.cfg.maxSteps())
	it.envs = s.buildTransportEnvs(in)
	it.nsub, err = maxSubsteps(op, it.envs, 3600.0/float64(it.nsteps)/2)
	if err != nil {
		return fail(err)
	}
	return it
}

// writeJob is one hour's output work.
type writeJob struct {
	hour int
	conc []float64
	size int64 // analytic snapshot size already charged by compute
}

// writeOne performs the output stage for one hour: encode the snapshot
// (to SnapshotDir, or a byte counter), verify the analytic size compute
// charged, throttle, and feed the SnapshotFunc sink.
func (s *Simulation) writeOne(ctx context.Context, job writeJob) error {
	if err := resilience.Fire(resilience.PointPipeWrite); err != nil {
		return fmt.Errorf("core: outputhour %d: %w", job.hour, err)
	}
	n, err := s.writeSnapshot(job.hour, job.conc)
	if err != nil {
		return resilience.MarkTransient(fmt.Errorf("core: outputhour %d: %w", job.hour, err))
	}
	if n != job.size {
		return fmt.Errorf("core: outputhour %d wrote %d bytes, charged %d", job.hour, n, job.size)
	}
	if err := s.throttleIO(ctx, n); err != nil {
		return err
	}
	if s.cfg.SnapshotFunc != nil {
		if err := s.cfg.SnapshotFunc(job.hour, job.conc); err != nil {
			return fmt.Errorf("core: snapshot sink at hour %d: %w", job.hour, err)
		}
	}
	return nil
}

// hourWriter is the bounded async output stage: compute enqueues a copy
// of the hour's replica and moves on; the writer runs writeOne behind
// it. The first error is latched and surfaced to the hour loop (which
// checks before each hour and at the final join). Queue capacity bounds
// memory: when the writer falls behind, enqueue blocks — backpressure,
// not unbounded buffering.
type hourWriter struct {
	s    *Simulation
	ctx  context.Context
	ch   chan writeJob
	pool chan []float64
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error
}

func newHourWriter(ctx context.Context, s *Simulation, depth int) *hourWriter {
	w := &hourWriter{
		s:    s,
		ctx:  ctx,
		ch:   make(chan writeJob, depth),
		pool: make(chan []float64, depth+1),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *hourWriter) run() {
	defer w.wg.Done()
	for job := range w.ch {
		// After a failure, drain remaining jobs without touching disk.
		if w.takeErr() == nil {
			if err := w.s.writeOne(w.ctx, job); err != nil {
				w.setErr(err)
			} else {
				pipelineStats.written.Add(1)
				select {
				case w.pool <- job.conc:
				default:
				}
			}
		}
		pipelineStats.writerQueue.Add(-1)
	}
}

// enqueue copies the job's replica into a pooled buffer and queues it.
// Blocks when the writer queue is full (bounded backpressure); honours
// cancellation while blocked.
func (w *hourWriter) enqueue(ctx context.Context, job writeJob) error {
	var buf []float64
	select {
	case buf = <-w.pool:
	default:
		buf = make([]float64, len(job.conc))
	}
	copy(buf, job.conc)
	job.conc = buf
	pipelineStats.writerQueue.Add(1)
	select {
	case w.ch <- job:
		return nil
	case <-ctx.Done():
		pipelineStats.writerQueue.Add(-1)
		return fmt.Errorf("core: run abandoned queueing hour %d output: %w", job.hour, ctx.Err())
	}
}

// wait stops accepting work, joins the writer and returns its latched
// error, if any. The hour loop calls it exactly once.
func (w *hourWriter) wait() error {
	close(w.ch)
	w.wg.Wait()
	return w.takeErr()
}

func (w *hourWriter) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *hourWriter) takeErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// runHours is the hour loop. next yields hour i's decoded input and
// write takes its output; at PipelineDepth 0 they are the two stages
// called inline, at depth > 0 a prefetch goroutine keeps up to depth
// decoded hours ahead of compute and the hourWriter persists completed
// hours behind it.
func (s *Simulation) runHours(ctx context.Context) (err error) {
	sh := s.cfg.Dataset.Shape
	depth := s.cfg.PipelineDepth
	first, end := s.cfg.StartHour, s.cfg.StartHour+s.cfg.Hours

	// Substep-counting operator private to the input stage:
	// transport.Prepare mutates operator state, so a prefetch running
	// beside compute cannot share compute's workers.
	preOp, err := transport.New2D(s.cfg.Dataset.Grid())
	if err != nil {
		return err
	}
	next := func(hour int) *hourItem { return s.prefetchHour(ctx, preOp, hour) }
	write := func(job writeJob) error { return s.writeOne(ctx, job) }

	if depth > 0 {
		pipelineStats.activeRuns.Add(1)
		pipelineStats.depth.Store(int64(depth))
		defer pipelineStats.activeRuns.Add(-1)

		pctx, cancel := context.WithCancel(ctx)
		items := make(chan *hourItem, depth) // the input lookahead
		var pfWG sync.WaitGroup
		pfWG.Add(1)
		go func() {
			defer pfWG.Done()
			defer close(items)
			for h := first; h < end; h++ {
				it := s.prefetchHour(pctx, preOp, h)
				select {
				case items <- it:
				case <-pctx.Done():
					return
				}
				if it.err != nil {
					return
				}
				pipelineStats.prefetched.Add(1)
			}
		}()
		w := newHourWriter(pctx, s, depth)

		// Join both stages on every exit path so no goroutine outlives the
		// run. A failed run cancels first, unblocking a prefetch mid-send
		// and aborting throttled writer sleeps; a clean one lets queued
		// snapshots finish writing before the cancel.
		defer func() {
			if err != nil {
				cancel()
			}
			if werr := w.wait(); err == nil {
				err = werr
			}
			cancel()
			pfWG.Wait()
		}()

		next = func(hour int) *hourItem {
			if werr := w.takeErr(); werr != nil {
				return &hourItem{err: werr}
			}
			var it *hourItem
			select {
			case it = <-items:
				pipelineStats.hits.Add(1)
			default:
				pipelineStats.stalls.Add(1)
				select {
				case it = <-items:
				case <-ctx.Done():
				}
			}
			if it == nil {
				// Cancelled: ctx is done, or the prefetch saw that first
				// and closed items (the only reason it closes early).
				it = &hourItem{err: fmt.Errorf("core: run abandoned before hour %d: %w", hour, ctx.Err())}
			}
			return it
		}
		write = func(job writeJob) error { return w.enqueue(ctx, job) }
	}

	for hour := first; hour < end; hour++ {
		it := next(hour)
		if it.err != nil {
			return it.err
		}
		if err := s.wedgePoint(ctx, hour); err != nil {
			return err
		}

		// --- inputhour accounting + pretrans: sequential on node 0 ---
		s.vm.ChargeIO(0, it.inBytes)
		pretransFlops := float64(12*sh.Layers*sh.Cells + 4*sh.Species*sh.Cells)
		s.vm.ChargeCompute(0, vm.CatIO, pretransFlops)
		s.vm.Barrier()

		ht := HourTrace{InBytes: it.inBytes, PretransFlops: pretransFlops}
		if err := s.runHourSteps(ctx, hour, it.in, it.envs, it.nsteps, it.nsub, &ht); err != nil {
			return err
		}

		// --- outputhour: sequential on node 0 ---
		repl, err := s.gatherReplica()
		if err != nil {
			return err
		}
		// Sentinels run before the hour is charged, recorded or handed to
		// the output stage: a NaN/negative/mass-drift hour never reaches a
		// snapshot, checkpoint or result.
		if err := s.sentinelCheck(hour, repl); err != nil {
			return err
		}
		outBytes := hourio.SnapshotSize(sh.Species, sh.Layers, sh.Cells)
		s.vm.ChargeIO(0, outBytes)
		s.vm.Barrier()
		ht.OutBytes = outBytes
		s.trace.Hours = append(s.trace.Hours, ht)

		hourPeak, hourPeakCell := s.recordHourPeak(repl)
		if err := write(writeJob{hour: hour, conc: repl, size: outBytes}); err != nil {
			return err
		}
		if s.cfg.OnHourEnd != nil {
			// The hour's physics and accounting are final. At depth 0 its
			// sinks have returned; at depth > 0 its snapshot may still be
			// in the writer queue.
			s.cfg.OnHourEnd(HourSummary{
				Hour:     hour,
				PeakO3:   hourPeak,
				PeakCell: hourPeakCell,
				Steps:    it.nsteps,
				InBytes:  it.inBytes,
				OutBytes: outBytes,
			})
		}
	}
	return nil
}
