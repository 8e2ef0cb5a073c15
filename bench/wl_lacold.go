package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"airshed/internal/chemistry"
	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/dist"
	"airshed/internal/fx"
	"airshed/internal/hourio"
	"airshed/internal/machine"
	"airshed/internal/meteo"
	"airshed/internal/transport"
	"airshed/internal/vm"
)

// coldShape is the run la-cold times; quick mode swaps in the mini grid.
type coldShape struct {
	Dataset   string
	Nodes     int
	StartHour int
	Hours     int
}

func coldShapeFor(quick bool) coldShape {
	if quick {
		return coldShape{"mini", 4, 11, 2}
	}
	return coldShape{"la", 8, 11, 3}
}

// reference is the checked-in answer of the cold run, per dataset.
type reference struct {
	TotalSteps   int       `json:"total_steps"`
	HourlyPeakO3 []float64 `json:"hourly_peak_o3"`
}

func loadReference(root, dataset string) (reference, error) {
	data, err := os.ReadFile(filepath.Join(root, "bench", "reference.json"))
	if err != nil {
		return reference{}, err
	}
	var refs map[string]reference
	if err := json.Unmarshal(data, &refs); err != nil {
		return reference{}, fmt.Errorf("bench/reference.json: %w", err)
	}
	ref, ok := refs[dataset]
	if !ok {
		return reference{}, fmt.Errorf("bench/reference.json has no entry %q", dataset)
	}
	return ref, nil
}

func hashField(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkColdResult applies la-cold's correctness gate to one run; a run that
// misses any part of it counts as one failed operation.
func checkColdResult(o *outcome, what string, res *core.Result, ref reference, wantHash *string) {
	before := len(o.Checks)
	o.check(res.TotalSteps == ref.TotalSteps, "%s: TotalSteps %d, reference %d", what, res.TotalSteps, ref.TotalSteps)
	if len(res.HourlyPeakO3) != len(ref.HourlyPeakO3) {
		o.check(false, "%s: %d hourly peaks, reference %d", what, len(res.HourlyPeakO3), len(ref.HourlyPeakO3))
	} else {
		for i, v := range res.HourlyPeakO3 {
			o.check(relClose(v, ref.HourlyPeakO3[i], 1e-3), "%s: hour %d peak O3 %.6g, reference %.6g", what, i, v, ref.HourlyPeakO3[i])
		}
	}
	h := hashField(res.Final)
	if *wantHash == "" {
		*wantHash = h
	}
	o.check(h == *wantHash, "%s: sha256(Final) %.12s differs from the first run's %.12s", what, h, *wantHash)
	if len(o.Checks) > before {
		o.Failed++
	}
}

// warmUpHour simulates one mini hour on the shared engine: it starts the
// engine's workers and faults the kernels in, so the first timed run does
// not pay for either.
func warmUpHour() error {
	mini, err := datasets.Mini()
	if err != nil {
		return err
	}
	_, err = core.Run(core.Config{Dataset: mini, Machine: machine.CrayT3E(), Nodes: 4, StartHour: 11, Hours: 1, GoParallel: true})
	return err
}

func runLACold(c *runCtx) (*outcome, error) {
	o := newOutcome()
	shape := coldShapeFor(c.Quick)
	ref, err := loadReference(c.Root, shape.Dataset)
	if err != nil {
		return nil, err
	}

	// Set-up, five times over so setup_s is a median: the dataset, the
	// snapshot directory, and one mini hour that starts the shared engine
	// and faults the kernels in.
	var ds *datasets.Dataset
	var snapDir string
	setup := func() error {
		var err error
		if ds, err = datasets.ByName(shape.Dataset); err != nil {
			return err
		}
		if snapDir, err = c.tempDir("snap"); err != nil {
			return err
		}
		return warmUpHour()
	}
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(setups), len(setups), "")

	cfg := core.Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: shape.Nodes,
		StartHour: shape.StartHour, Hours: shape.Hours,
		GoParallel: true, HostWorkers: 0, PipelineDepth: 0, SnapshotDir: snapDir,
	}
	var wantHash string
	var last *core.Result
	// runOnce is one repetition: its wall time, the hours' summaries and
	// their durations from OnHourEnd timestamps (a callback that appends two
	// values, so the untraced pass keeps it too). With tr non-nil every hour
	// also becomes a span under the run's span.
	runOnce := func(cfg core.Config, tr *tracer, id string) (*core.Result, float64, []core.HourSummary, []float64, error) {
		var hours []core.HourSummary
		var ends []time.Time
		cfg.OnHourEnd = func(h core.HourSummary) {
			hours = append(hours, h)
			ends = append(ends, time.Now())
		}
		root := tr.begin("core.RunContext "+id, "core", id, -1)
		start := time.Now()
		res, err := core.RunContext(context.Background(), cfg)
		wall := time.Since(start)
		tr.end(root)
		hourSecs := make([]float64, len(hours))
		prev := start
		for i, h := range hours {
			tr.add(span{Name: fmt.Sprintf("hour %d", h.Hour), Layer: "core.hour", ID: id, Parent: root, Start: prev, End: ends[i]})
			hourSecs[i] = ends[i].Sub(prev).Seconds()
			prev = ends[i]
		}
		return res, wall.Seconds(), hours, hourSecs, err
	}

	if !c.traced() {
		// parts[h] holds hour h's seconds over the repetitions; the last
		// row is what a run spends outside its hours (start and gather).
		parts := make([][]float64, shape.Hours+1)
		var wallsMs []float64
		err := c.repeat(false, func(rep int) error {
			o.Attempted++
			res, wall, _, hourSecs, err := runOnce(cfg, nil, "")
			if err != nil {
				return err
			}
			if len(hourSecs) != shape.Hours {
				return fmt.Errorf("run %d reported %d hours, want %d", rep, len(hourSecs), shape.Hours)
			}
			rest := wall
			for h, s := range hourSecs {
				parts[h] = append(parts[h], s)
				rest -= s
			}
			parts[shape.Hours] = append(parts[shape.Hours], rest)
			wallsMs = append(wallsMs, wall*1000)
			checkColdResult(o, fmt.Sprintf("run %d", rep), res, ref, &wantHash)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// A run's time is the sum of its hours' fast quartiles, not a
		// statistic of the whole runs: seconds lost to a neighbour then
		// spoil the hours they fall in, not every repetition they touch.
		var run float64
		for _, p := range parts {
			run += fastQuartile(p)
		}
		ms := summarize(wallsMs)
		o.set("latency_ms", run*1000, ms.N, ms.tailLabel(1))
		o.set("work_per_s", float64(shape.Hours)/run, ms.N, "")
		return o, nil
	}

	// Traced pass: untraced and traced repetitions alternate for half the
	// budget, then the same run at one host worker, then the unit-cost
	// probes of every layer the run uses.
	var untraced, tracedWalls, hourSecs []float64
	var hourSteps int
	var inBytes, outBytes int64
	engineBefore := fx.SharedEngine().Stats()
	start := time.Now()
	for rep := 0; ; rep++ {
		o.Attempted += 2
		res, wall, _, _, err := runOnce(cfg, nil, "")
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, wall)
		checkColdResult(o, fmt.Sprintf("untraced run %d", rep), res, ref, &wantHash)

		var hours []core.HourSummary
		res, wall, hours, hourSecs, err = runOnce(cfg, c.Trace, fmt.Sprintf("rep%d", rep))
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, wall)
		checkColdResult(o, fmt.Sprintf("traced run %d", rep), res, ref, &wantHash)
		last = res
		inBytes, outBytes = 0, 0
		for _, h := range hours {
			inBytes += h.InBytes
			outBytes += h.OutBytes
			if h.Hour == shape.StartHour+1 {
				hourSteps = h.Steps // the hour the probes take their inputs from
			}
		}
		if c.Quick || time.Since(start) >= c.Budget/2 {
			break
		}
	}
	engineAfter := fx.SharedEngine().Stats()
	runs := float64(len(untraced) + len(tracedWalls))
	o.set("fx.engine_chunks", float64(engineAfter.Chunks-engineBefore.Chunks)/runs, int(runs), "")
	o.set("fx.engine_runs", float64(engineAfter.Runs-engineBefore.Runs)/runs, int(runs), "")
	o.set("bench.trace_overhead_pct", overheadPct(median(untraced), median(tracedWalls)), len(tracedWalls), "")
	o.set("core.hour_p50_s", median(hourSecs), len(hourSecs), "")
	o.set("core.hour_max_s", quantile(hourSecs, 1), len(hourSecs), "")

	// The plain single-threaded baseline: same answer, one worker.
	serialCfg := cfg
	serialCfg.HostWorkers = 1
	o.Attempted++
	serialRes, serialS, _, _, err := runOnce(serialCfg, c.Trace, "serial")
	if err != nil {
		return nil, err
	}
	checkColdResult(o, "HostWorkers=1 run", serialRes, ref, &wantHash)
	o.set("core.serial_s", serialS, 1, "")
	o.set("fx.engine_speedup", serialS/median(untraced), 1, "")

	o.set("chemistry.flops", last.Trace.SumChemFlops(), 1, "")
	o.set("transport.flops", last.Trace.SumTransportFlops(), 1, "")
	o.set("hourio.in_bytes", float64(inBytes), shape.Hours, "")
	o.set("hourio.out_bytes", float64(outBytes), shape.Hours, "")
	redists := 0
	for _, n := range last.RedistCounts {
		redists += n
	}
	o.set("fx.redist_count", float64(redists), 1, "")

	est, err := coldProbes(c, o, ds, shape, hourSteps, last)
	if err != nil {
		return nil, err
	}
	// The host's Fig. 4 residual: what the five measured layers do not
	// explain of the one-worker run (driver, sentinels, aerosol, gather).
	o.set("core.unexplained_share", 1-est/serialS, 1, "")
	return o, nil
}

// coldProbes times each layer's exported call on the run's own inputs and
// returns the summed estimate of the layers' busy time in one run.
func coldProbes(c *runCtx, o *outcome, ds *datasets.Dataset, shape coldShape, steps int, res *core.Result) (float64, error) {
	sh := ds.Shape
	mech := ds.Mechanism()
	midHour := shape.StartHour + 1
	in, err := ds.Provider.HourInput(midHour)
	if err != nil {
		return 0, err
	}
	conc := ds.Provider.InitialConcentrations()
	dt := 3600.0 / float64(steps)
	var estTotal float64

	// chemistry: Operator.Apply over every column under the mid-run hour's
	// environment. Rate = charged flops / time, the same flops the run's
	// trace counts, so flops / rate estimates the run's chemistry time.
	{
		op, err := chemistry.NewOperator(mech, ds.Geometry(), chemistry.DefaultConfig())
		if err != nil {
			return 0, err
		}
		env := &chemistry.CellEnv{TempK: in.TempK, Sun: in.Sun, Vert: &chemistry.VerticalEnv{
			Kz: in.Kz, VDep: in.VDep, VSettle: in.VSettle, Emis: make([]float64, sh.Species)}}
		work := append([]float64(nil), conc...)
		col := sh.Species * sh.Layers
		var flops float64
		var busy time.Duration
		cell := 0
		ds1, err := probe(c, "chemistry.Operator.Apply", "chemistry", 0, sh.Cells, func() error {
			for sp := range env.Vert.Emis {
				env.Vert.Emis[sp] = in.Emis[sp][cell]
			}
			cw, err := op.Apply(work[cell*col:(cell+1)*col], env, dt)
			flops += cw.Flops(mech, ds.ChemFlopsScale)
			cell++
			return err
		})
		if err != nil {
			return 0, err
		}
		for _, d := range ds1 {
			busy += d
		}
		o.setProbe("chemistry.column_us", ds1, time.Microsecond)
		rate := flops / busy.Seconds()
		o.set("chemistry.mflops", rate/1e6, len(ds1), "")
		est := res.Trace.SumChemFlops() / rate
		o.set("chemistry.est_busy_s", est, 1, "")
		estTotal += est
	}

	// transport: Prepare once per layer, StepFieldN per species field, the
	// way the transport phase calls them.
	{
		op, err := transport.New2D(ds.Grid())
		if err != nil {
			return 0, err
		}
		field := make([]float64, sh.Cells)
		var flops float64
		var busy time.Duration
		var steps1 []time.Duration
		for l := 0; l < sh.Layers; l++ {
			env := &transport.Env{U: in.WindU[l], V: in.WindV[l], KH: in.KH}
			t0 := time.Now()
			if _, err := op.Prepare(env); err != nil {
				return 0, err
			}
			busy += time.Since(t0)
			nsub := op.Substeps(dt / 2)
			sp := 0
			ds1, err := probe(c, "transport.Operator2D.StepFieldN", "transport", 0, sh.Species, func() error {
				for cell := range field {
					field[cell] = conc[sh.Index(sp, l, cell)]
				}
				env.Inflow = in.Inflow[sp]
				sp++
				w, err := op.StepFieldN(field, env, dt/2, nsub)
				flops += w * ds.TransportFlopsScale
				return err
			})
			if err != nil {
				return 0, err
			}
			steps1 = append(steps1, ds1...)
		}
		for _, d := range steps1 {
			busy += d
		}
		o.setProbe("transport.layer_step_us", steps1, time.Microsecond)
		rate := flops / busy.Seconds()
		o.set("transport.mflops", rate/1e6, len(steps1), "")
		est := res.Trace.SumTransportFlops() / rate
		o.set("transport.est_busy_s", est, 1, "")
		estTotal += est
	}

	// fx: the redistribution cycle of one inner step on the run's virtual
	// machine; bytes come from the plans, not from a counter.
	{
		m, err := vm.New(machine.CrayT3E(), shape.Nodes)
		if err != nil {
			return 0, err
		}
		arr, err := fx.NewArrayFrom(fx.NewRuntime(m), sh, dist.DTrans, conc)
		if err != nil {
			return 0, err
		}
		var cycleBytes int64
		legs := []dist.Dist{dist.DChem, dist.DRepl, dist.DTrans}
		legTimes := make([][]time.Duration, len(legs))
		cycles, err := probe(c, "fx.Array.Redistribute cycle", "fx", 3, 30, func() error {
			cycleBytes = 0
			for i, to := range legs {
				t0 := time.Now()
				plan, err := arr.Redistribute(to)
				if err != nil {
					return err
				}
				legTimes[i] = append(legTimes[i], time.Since(t0))
				cycleBytes += plan.TotalBytesMoved() + plan.TotalBytesCopied()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		o.setProbe("fx.redist_cycle_ms", cycles, time.Millisecond)
		cycleS := median(durationsTo(cycles, time.Second))
		o.set("fx.redist_gbps", float64(cycleBytes)/cycleS/1e9, len(cycles), "")
		leg := func(i int) float64 { return median(durationsTo(legTimes[i], time.Second)) }
		n := res.RedistCounts
		est := float64(n[core.KindTransToChem])*leg(0) + float64(n[core.KindChemToRepl])*leg(1) +
			float64(n[core.KindReplToTrans])*leg(2) + float64(n[core.KindTransToRepl])/2*(leg(0)+leg(1))
		o.set("fx.est_busy_s", est, 1, "")
		estTotal += est
	}

	// meteo: the synthetic provider generates every hour's input afresh.
	{
		h := 0
		gens, err := probe(c, "meteo.Synthetic.HourInput", "meteo", 1, 12, func() error {
			_, err := ds.Provider.HourInput(shape.StartHour + h%shape.Hours)
			h++
			return err
		})
		if err != nil {
			return 0, err
		}
		o.setProbe("meteo.hour_gen_ms", gens, time.Millisecond)
		est := float64(shape.Hours) * median(durationsTo(gens, time.Second))
		o.set("meteo.est_busy_s", est, 1, "")
		estTotal += est
	}

	// hourio: encode/decode of the hour input, write/read of the snapshot.
	{
		var buf bytes.Buffer
		var inBytes, snapBytes int64
		enc, err := probe(c, "hourio.WriteHourInput", "hourio", 2, 30, func() error {
			buf.Reset()
			var err error
			inBytes, err = hourio.WriteHourInput(&buf, in)
			return err
		})
		if err != nil {
			return 0, err
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		dec, err := probe(c, "hourio.ReadHourInput", "hourio", 2, 30, func() error {
			var got *meteo.HourInput
			got, _, err := hourio.ReadHourInput(bytes.NewReader(encoded))
			if err == nil && got.Hour != in.Hour {
				err = fmt.Errorf("decoded hour %d, want %d", got.Hour, in.Hour)
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		snapPath := filepath.Join(c.Scratch, "probe.snap")
		wr, err := probe(c, "hourio.WriteSnapshot", "hourio", 2, 30, func() error {
			f, err := os.Create(snapPath)
			if err != nil {
				return err
			}
			snapBytes, err = hourio.WriteSnapshot(f, midHour, sh.Species, sh.Layers, sh.Cells, res.Final)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		snap, err := os.ReadFile(snapPath)
		if err != nil {
			return 0, err
		}
		var readBack []float64
		rd, err := probe(c, "hourio.ReadSnapshot", "hourio", 2, 30, func() error {
			var err error
			_, _, _, _, readBack, _, err = hourio.ReadSnapshot(bytes.NewReader(snap))
			return err
		})
		if err != nil {
			return 0, err
		}
		o.check(hashField(readBack) == hashField(res.Final), "hourio: snapshot round trip changed the field")
		mbps := func(bytes int64, ds []time.Duration) float64 {
			return float64(bytes) / median(durationsTo(ds, time.Second)) / 1e6
		}
		o.set("hourio.in_encode_mbps", mbps(inBytes, enc), len(enc), "")
		o.set("hourio.in_decode_mbps", mbps(inBytes, dec), len(dec), "")
		o.set("hourio.snap_write_mbps", mbps(snapBytes, wr), len(wr), "")
		o.set("hourio.snap_read_mbps", mbps(snapBytes, rd), len(rd), "")
		est := float64(shape.Hours) * (median(durationsTo(enc, time.Second)) + median(durationsTo(wr, time.Second)))
		o.set("hourio.est_busy_s", est, 1, "")
		estTotal += est
	}
	return estTotal, nil
}
