package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"airshed/internal/aerosol"
	"airshed/internal/chemistry"
	"airshed/internal/fx"
	"airshed/internal/hourio"
	"airshed/internal/machine"
	"airshed/internal/meteo"
	"airshed/internal/resilience"
	"airshed/internal/transport"
	"airshed/internal/vm"
)

// Redistribution kind labels used by Figure 5's per-step breakdown.
const (
	KindReplToTrans = "D_Repl->D_Trans"
	KindTransToChem = "D_Trans->D_Chem"
	KindChemToRepl  = "D_Chem->D_Repl"
	KindTransToRepl = "D_Trans->D_Repl (hourly)"
)

// RedistKinds lists the kinds in the paper's order.
func RedistKinds() []string {
	return []string{KindReplToTrans, KindTransToChem, KindChemToRepl, KindTransToRepl}
}

// Result is the outcome of a physical simulation run.
type Result struct {
	// Ledger is the virtual machine's per-category time report.
	Ledger vm.Ledger
	// Trace is the machine-independent work record (replayable).
	Trace *Trace
	// Final is the final concentration array in canonical layout.
	Final []float64
	// TotalSteps is the number of inner steps executed.
	TotalSteps int
	// PeakO3 is the maximum ground-layer ozone over the run (ppm) and
	// PeakO3Cell the cell where it occurred.
	PeakO3     float64
	PeakO3Cell int
	// HourlyPeakO3 records the ground-layer ozone maximum at the end of
	// every simulated hour (index 0 = first hour of the run), and
	// HourlyPeakCell the cell where each hour's maximum occurred (the
	// store's physics records keep both so warm-started runs reconstruct
	// PeakO3/PeakO3Cell exactly).
	HourlyPeakO3   []float64
	HourlyPeakCell []int
	// NodeUtilization is each virtual node's busy fraction of the total
	// time; Efficiency is their average (the run's parallel efficiency).
	NodeUtilization []float64
	Efficiency      float64
	// CommSeconds[kind] totals the virtual time of each redistribution
	// kind (Figure 5); RedistCounts[kind] counts occurrences.
	CommSeconds  map[string]float64
	RedistCounts map[string]int
}

// Simulation is the physical Airshed driver.
type Simulation struct {
	cfg Config
	// conc is the run's concentration array in canonical layout
	// (species fastest): a private copy of the initial field that every
	// phase updates in place.
	conc []float64
	aero *aerosol.Model

	// Operators and scratch are pooled per host-engine worker (the
	// chemistry.Operator is single-owner), not per virtual node, so a
	// nodes=1 run still fills every core.
	engine      *fx.Engine // shared engine, or the dedicated one while running
	workerChem  []*chemistry.Operator
	workerTrans []*transport.Operator2D
	workerField [][]float64          // per-worker layer-field scratch
	workerEnv   []*chemistry.CellEnv // per-worker cell environment (owns its emis buffer)
	trailBuf    []float64            // trailing-transport record scratch, reused per step

	minCell float64
	iO3     int

	// prevMass is the sentinel mass ledger: the previous hour's
	// domain-total concentration (0 until the first scanned hour).
	prevMass float64

	trace  *Trace
	result *Result
}

// NewSimulation validates the configuration and assembles the driver.
func NewSimulation(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds := cfg.Dataset
	init := cfg.InitialConc
	if init == nil {
		init = ds.Provider.InitialConcentrations()
	}
	if len(init) != ds.Shape.Len() {
		return nil, fmt.Errorf("core: initial field has %d values, want %d", len(init), ds.Shape.Len())
	}
	aero, err := aerosol.New(ds.Mechanism())
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:  cfg,
		conc: append([]float64(nil), init...),
		aero: aero,
		iO3:  ds.Mechanism().MustIndex("O3"),
	}
	g := ds.Grid()
	s.minCell = math.Inf(1)
	for i := range g.Cells {
		if g.Cells[i].Size < s.minCell {
			s.minCell = g.Cells[i].Size
		}
	}
	chemCfg := cfg.chemConfig()
	s.trailBuf = make([]float64, ds.Shape.Layers)
	nw := cfg.HostWorkers
	if nw == 0 {
		s.engine = fx.SharedEngine()
		nw = s.engine.Workers()
	}
	s.workerChem = make([]*chemistry.Operator, nw)
	s.workerTrans = make([]*transport.Operator2D, nw)
	s.workerField = make([][]float64, nw)
	s.workerEnv = make([]*chemistry.CellEnv, nw)
	for w := 0; w < nw; w++ {
		op, err := chemistry.NewOperator(ds.Mechanism(), ds.Geometry(), chemCfg)
		if err != nil {
			return nil, err
		}
		s.workerChem[w] = op
		top, err := transport.New2D(g)
		if err != nil {
			return nil, err
		}
		s.workerTrans[w] = top
		s.workerField[w] = make([]float64, ds.Shape.Cells)
		s.workerEnv[w] = &chemistry.CellEnv{
			Vert: &chemistry.VerticalEnv{Emis: make([]float64, ds.Shape.Species)},
		}
	}
	s.trace = &Trace{Dataset: ds.Name, Shape: ds.Shape}
	s.result = &Result{}
	return s, nil
}

// StepsForHour computes the runtime-determined inner step count for an
// hour input (the paper: "a number of time steps determined at runtime
// based on the hourly inputs"): an accuracy-driven bound on how far the
// operator-splitting step may advect relative to the finest cell.
func StepsForHour(in *meteo.HourInput, minCell float64, maxSteps int) int {
	maxSpeed := 0.0
	for l := range in.WindU {
		for c := range in.WindU[l] {
			if v := math.Hypot(in.WindU[l][c], in.WindV[l][c]); v > maxSpeed {
				maxSpeed = v
			}
		}
	}
	n := int(math.Ceil(3600 * maxSpeed / (4.5 * minCell)))
	if n < 2 {
		n = 2
	}
	if n > maxSteps {
		n = maxSteps
	}
	return n
}

// RunContext executes the simulation, checking ctx at every hour and
// every inner time step; on cancellation it abandons the run and returns
// an error wrapping ctx.Err(). The check granularity is one step, so a
// cancelled job stops within a fraction of a simulated hour. The finished
// run is priced by Price from its trace.
func (s *Simulation) RunContext(ctx context.Context) (*Result, error) {
	// A positive HostWorkers asks for a dedicated engine scoped to this
	// run; the shared engine (HostWorkers == 0) was bound at build time
	// and is never closed.
	if s.engine == nil {
		eng := fx.NewEngine(s.cfg.HostWorkers)
		s.engine = eng
		defer func() {
			s.engine = nil
			eng.Close()
		}()
	}

	if err := s.runHours(ctx); err != nil {
		return nil, err
	}

	s.result.Trace = s.trace
	s.result.Final = s.conc
	if err := Price(s.result, s.cfg.Machine, s.cfg.Nodes, s.cfg.Mode); err != nil {
		return nil, err
	}
	return s.result, nil
}

// Price sets every priced field of res from replays of res.Trace on prof
// with p nodes: Ledger, CommSeconds and RedistCounts from the replay in
// mode, NodeUtilization and Efficiency from the data-parallel replay (a
// run reports the data-schedule utilization in task mode too). A live
// run and a result assembled from stored physics are priced alike. Both
// replays share one Pricer, so the trace is validated once.
func Price(res *Result, prof *machine.Profile, p int, mode Mode) error {
	pr, err := NewPricer(res.Trace)
	if err != nil {
		return err
	}
	rr, err := pr.Replay(prof, p, DataParallel)
	if err != nil {
		return err
	}
	res.NodeUtilization, res.Efficiency = rr.NodeUtilization, rr.Efficiency
	if mode != DataParallel {
		if rr, err = pr.Replay(prof, p, mode); err != nil {
			return err
		}
	}
	res.Ledger, res.CommSeconds, res.RedistCounts = rr.Ledger, rr.CommSeconds, rr.RedistCounts
	return nil
}

// hourProvider resolves the meteo provider for an hour: the control
// provider once its delayed start is reached, the base provider before.
func (s *Simulation) hourProvider(hour int) *meteo.Synthetic {
	if s.cfg.ControlProvider != nil && hour >= s.cfg.ControlStartHour {
		return s.cfg.ControlProvider
	}
	return s.cfg.Dataset.Provider
}

// runHourSteps executes one hour's inner step loop (leading transport,
// chemistry, aerosol, trailing transport), appending step traces to ht.
func (s *Simulation) runHourSteps(ctx context.Context, hour int, in *meteo.HourInput, envs []transport.Env, nsteps, nsub int, ht *HourTrace) error {
	sh := s.cfg.Dataset.Shape
	dtStep := 3600.0 / float64(nsteps)
	for step := 0; step < nsteps; step++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run abandoned at hour %d step %d: %w", hour, step, err)
		}
		st := StepTrace{
			LayerFlops: make([]float64, sh.Layers),
			CellFlops:  make([]float64, sh.Cells),
		}
		// Leading transport (half step).
		if err := s.transportPhase(envs, in, dtStep/2, nsub, st.LayerFlops); err != nil {
			return err
		}
		// Chemistry + vertical transport (full step).
		if err := s.chemistryPhase(in, dtStep, st.CellFlops); err != nil {
			return err
		}
		// Aerosol: one step on the whole array (replicated on every node
		// in the priced schedule).
		aeroFlops, err := s.aero.Step(s.conc, sh.Species, sh.Layers, sh.Cells, in.TempK[0])
		if err != nil {
			return err
		}
		st.AeroFlops = aeroFlops
		// Trailing transport (half step).
		trail := s.trailBuf
		if err := s.transportPhase(envs, in, dtStep/2, nsub, trail); err != nil {
			return err
		}
		for l := range trail {
			if trail[l] != st.LayerFlops[l] {
				return fmt.Errorf("core: leading/trailing transport work diverged on layer %d: %g vs %g",
					l, st.LayerFlops[l], trail[l])
			}
		}
		ht.Steps = append(ht.Steps, st)
		s.result.TotalSteps++
	}
	return nil
}

// recordHourPeak scans the ground-layer ozone field for the hourly and
// running peaks and appends the hourly diagnostics to the result.
func (s *Simulation) recordHourPeak() (float64, int) {
	sh := s.cfg.Dataset.Shape
	hourPeak, hourPeakCell := 0.0, 0
	for c := 0; c < sh.Cells; c++ {
		v := s.conc[s.iO3+sh.Species*(0+sh.Layers*c)]
		if v > hourPeak {
			hourPeak = v
			hourPeakCell = c
		}
		if v > s.result.PeakO3 {
			s.result.PeakO3 = v
			s.result.PeakO3Cell = c
		}
	}
	s.result.HourlyPeakO3 = append(s.result.HourlyPeakO3, hourPeak)
	s.result.HourlyPeakCell = append(s.result.HourlyPeakCell, hourPeakCell)
	return hourPeak, hourPeakCell
}

// buildTransportEnvs creates the per-layer transport environments.
func (s *Simulation) buildTransportEnvs(in *meteo.HourInput) []transport.Env {
	nl := s.cfg.Dataset.Shape.Layers
	envs := make([]transport.Env, nl)
	for l := 0; l < nl; l++ {
		envs[l] = transport.Env{U: in.WindU[l], V: in.WindV[l], KH: in.KH}
	}
	return envs
}

// maxSubsteps computes the shared transport substep count for an hour:
// the worst layer's CFL requirement for a half step of dtHalf seconds.
// The transport solver advances every layer with this one substep, so
// per-layer work is uniform and the transport phase load depends only on
// the layer count per node — the behaviour the paper's Figure 4 shows.
// Prepare overwrites all of op's per-environment state, so the input stage
// may borrow a compute worker's operator: transportPhase prepares every
// layer again before stepping it.
func maxSubsteps(op *transport.Operator2D, envs []transport.Env, dtHalf float64) (int, error) {
	nsub := 1
	for l := range envs {
		if _, err := op.Prepare(&envs[l]); err != nil {
			return 0, err
		}
		if n := op.Substeps(dtHalf); n > nsub {
			nsub = n
		}
	}
	return nsub, nil
}

// transportPhase runs the horizontal operator on every layer with the
// shared substep count: all layers form one item space chunked across the
// engine's workers. Each (species, layer) field is gathered from the
// canonical array (stride species x layers), stepped and scattered back in
// place. Each layer's work lands in its fixed record slot, so the trace is
// bit-identical at any worker count.
func (s *Simulation) transportPhase(envs []transport.Env, in *meteo.HourInput, dt float64, nsub int, record []float64) error {
	ds := s.cfg.Dataset
	sh := ds.Shape
	stride := sh.Species * sh.Layers
	return s.engine.Run(sh.Layers, func(worker, lo, hi int) error {
		op := s.workerTrans[worker]
		buf := s.workerField[worker]
		for l := lo; l < hi; l++ {
			env := &envs[l]
			if _, err := op.Prepare(env); err != nil {
				return err
			}
			var layerWork float64
			for sp := 0; sp < sh.Species; sp++ {
				field := s.conc[sp+sh.Species*l:]
				for c := range buf {
					buf[c] = field[stride*c]
				}
				env.Inflow = in.Inflow[sp]
				w, err := op.StepFieldN(buf, env, dt, nsub)
				if err != nil {
					return err
				}
				layerWork += w
				for c, v := range buf {
					field[stride*c] = v
				}
			}
			record[l] = layerWork * ds.TransportFlopsScale
		}
		return nil
	})
}

// chemistryPhase runs the Lcz operator on every cell column, the
// contiguous species x layers block of the canonical array: all columns
// form one item space chunked across the engine's workers. Each worker
// applies its own pooled Operator (single-owner scratch) and the per-cell
// flops land in fixed record slots, so the trace is bit-identical at any
// worker count.
func (s *Simulation) chemistryPhase(in *meteo.HourInput, dt float64, record []float64) error {
	ds := s.cfg.Dataset
	sh := ds.Shape
	mech := ds.Mechanism()
	col := sh.Species * sh.Layers
	for _, env := range s.workerEnv {
		env.TempK = in.TempK
		env.Sun = in.Sun
		env.Vert.Kz = in.Kz
		env.Vert.VDep = in.VDep
		env.Vert.VSettle = in.VSettle
	}
	return s.engine.Run(sh.Cells, func(worker, lo, hi int) error {
		op := s.workerChem[worker]
		env := s.workerEnv[worker]
		emis := env.Vert.Emis
		for c := lo; c < hi; c++ {
			for sp := range emis {
				emis[sp] = in.Emis[sp][c]
			}
			cw, err := op.Apply(s.conc[col*c:col*(c+1)], env, dt)
			if err != nil {
				return err
			}
			record[c] = cw.Flops(mech, ds.ChemFlopsScale)
		}
		return nil
	})
}

// writeSnapshot serialises the hourly output, really (SnapshotDir set) or
// to a byte counter.
func (s *Simulation) writeSnapshot(hour int, conc []float64) (int64, error) {
	sh := s.cfg.Dataset.Shape
	if s.cfg.SnapshotDir == "" {
		return hourio.WriteSnapshot(io.Discard, hour, sh.Species, sh.Layers, sh.Cells, conc)
	}
	path := filepath.Join(s.cfg.SnapshotDir, fmt.Sprintf("hour_%03d.snap", hour))
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, werr := hourio.WriteSnapshot(f, hour, sh.Species, sh.Layers, sh.Cells, conc)
	cerr := f.Close()
	if werr != nil {
		return n, werr
	}
	return n, cerr
}

// Run is the convenience entry point: build and run a simulation.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is the context-aware convenience entry point: build and run
// a simulation that honours ctx cancellation between time steps.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := NewSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// RestartContext resumes a simulation from an hourly snapshot file written
// by a previous run (Config.SnapshotDir): the snapshot's concentrations
// become the initial state and its hour+1 the start hour. The continuation
// is bit-identical to having run straight through (asserted by
// TestRestartBitIdentical).
func RestartContext(ctx context.Context, snapshotPath string, cfg Config) (*Result, error) {
	f, err := os.Open(snapshotPath)
	if err != nil {
		return nil, resilience.MarkTransient(err)
	}
	defer f.Close()
	return RestartReaderContext(ctx, f, cfg)
}

// RestartReaderContext resumes a simulation from an hourio snapshot
// stream — the warm-start path of the scheduler, which resumes from
// store checkpoints (possibly fetched over the network in fleet mode)
// and must still honour per-job cancellation.
func RestartReaderContext(ctx context.Context, r io.Reader, cfg Config) (*Result, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("core: Restart needs Config.Dataset")
	}
	hour, ns, nl, nc, conc, _, err := hourio.ReadSnapshot(r)
	if err != nil {
		// The snapshot bytes arrived but do not decode (bad magic, CRC
		// mismatch, truncation): corruption, which is permanent — a retry
		// would re-read the same bad bytes and burn the whole backoff
		// budget before falling back to recompute. Callers quarantine the
		// source artifact and recompute instead.
		return nil, resilience.MarkCorrupt(fmt.Errorf("core: restart snapshot: %w", err))
	}
	sh := cfg.Dataset.Shape
	if ns != sh.Species || nl != sh.Layers || nc != sh.Cells {
		return nil, resilience.MarkCorrupt(fmt.Errorf("core: snapshot dimensions A(%d,%d,%d) do not match data set %v",
			ns, nl, nc, sh))
	}
	cfg.StartHour = hour + 1
	cfg.InitialConc = conc
	return RunContext(ctx, cfg)
}
