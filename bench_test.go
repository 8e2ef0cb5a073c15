package airshed

// The benchmark harness regenerates every evaluation artifact of the
// paper (DESIGN.md section 4 maps each figure to its benchmark):
//
//	BenchmarkFig2_MachinesLA     Figure 2  (LA on T3E/T3D/Paragon, 4-128 nodes)
//	BenchmarkFig3_T3E_Datasets   Figure 3  (LA vs NE on the T3E)
//	BenchmarkFig4_Components     Figure 4  (component breakdown vs nodes)
//	BenchmarkFig5_Redistribution Figure 5  (per-kind redistribution times)
//	BenchmarkFig6_PredictedComm  Figure 6  (predicted vs measured communication)
//	BenchmarkFig7_PredictedComp  Figure 7  (predicted vs measured computation)
//	BenchmarkFig9_TaskParallel   Figure 9  (data vs task+data speedup, Paragon)
//	BenchmarkFig13_Foreign       Figure 13 (native task vs PVM foreign module)
//	BenchmarkParams_FitLGH       Section 4.3 parameter estimation
//	BenchmarkAblation_*          the DESIGN.md ablation studies
//
// plus micro-benchmarks of every substrate. The 24-hour physical LA/NE
// runs are executed once and cached under testdata/traces; figure
// benchmarks then measure the replay/pricing machinery.

import (
	"io"
	"sync"
	"testing"

	"airshed/internal/chemistry"
	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/dist"
	"airshed/internal/figures"
	frn "airshed/internal/foreign"
	"airshed/internal/fx"
	"airshed/internal/hourio"
	"airshed/internal/machine"
	"airshed/internal/meteo"
	"airshed/internal/perfmodel"
	"airshed/internal/popexp"
	"airshed/internal/species"
	"airshed/internal/transport"
	"airshed/internal/vm"
)

const traceCacheDir = "testdata/traces"

var (
	benchMu  sync.Mutex
	benchCtx *figures.Context
)

// benchContext builds (or loads) the 24-hour traces. The first call per
// checkout performs the physical LA run (and NE when needed); afterwards
// everything is cached on disk.
func benchContext(b *testing.B, needNE bool) *figures.Context {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchCtx != nil && (!needNE || benchCtx.NE != nil) {
		return benchCtx
	}
	ctx, err := figures.Load(traceCacheDir, 24, needNE)
	if err != nil {
		b.Fatalf("building traces: %v", err)
	}
	benchCtx = ctx
	return ctx
}

func runFigure(b *testing.B, build func() (*figures.Figure, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := build()
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Tables) == 0 {
			b.Fatal("figure produced no tables")
		}
	}
}

func BenchmarkFig2_MachinesLA(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig2)
}

func BenchmarkFig3_T3E_Datasets(b *testing.B) {
	ctx := benchContext(b, true)
	runFigure(b, ctx.Fig3)
}

func BenchmarkFig4_Components(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig4)
}

func BenchmarkFig5_Redistribution(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig5)
}

func BenchmarkFig6_PredictedComm(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig6)
}

func BenchmarkFig7_PredictedComp(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig7)
}

func BenchmarkFig8_PipelineSchedule(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig8)
}

func BenchmarkFig9_TaskParallel(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig9)
}

func BenchmarkFig12_CoupledSchedule(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig12)
}

func BenchmarkFig13_Foreign(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Fig13)
}

func BenchmarkParams_FitLGH(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.Params)
}

// --- Ablation studies (DESIGN.md section 5) ---

// freshContext returns a Context over ctx's traces that has priced and
// computed nothing yet, so a benchmark of a once-per-Context result times
// the work rather than a cache hit.
func freshContext(ctx *figures.Context) *figures.Context {
	return &figures.Context{LA: ctx.LA, NE: ctx.NE, Hours: ctx.Hours}
}

// The transport-scheme and integrator ablations read no trace, so a
// Context computes them once; these two time the numerics on a fresh
// Context per iteration.
func BenchmarkAblation_TransportScheme(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, func() (*figures.Figure, error) { return freshContext(ctx).AblationTransportScheme() })
}

func BenchmarkAblation_AerosolRedist(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.AblationAerosolRedist)
}

func BenchmarkAblation_Pipeline(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.AblationPipeline)
}

func BenchmarkAblation_ForeignScenario(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.AblationForeignScenario)
}

func BenchmarkAblation_Allocation(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.AblationAllocation)
}

func BenchmarkAblation_Integrator(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, func() (*figures.Figure, error) { return freshContext(ctx).AblationIntegrator() })
}

func BenchmarkStudy_LoadBalance(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.StudyLoadBalance)
}

func BenchmarkStudy_DiurnalWork(b *testing.B) {
	ctx := benchContext(b, false)
	runFigure(b, ctx.StudyDiurnalWork)
}

// figureSet builds one full set on ctx, as the replay-figs workload does:
// every figure, every ablation, every claim.
func figureSet(b *testing.B, ctx *figures.Context) {
	b.Helper()
	if _, err := ctx.All(); err != nil {
		b.Fatal(err)
	}
	if _, err := ctx.Ablations(); err != nil {
		b.Fatal(err)
	}
	held, total, failures, err := ctx.CheckClaims()
	if err != nil {
		b.Fatal(err)
	}
	if held != total {
		b.Fatalf("claims %d/%d: %v", held, total, failures)
	}
}

// BenchmarkFigureSet times a figure set two ways: reused, every set after
// the first on one Context (what regenerating the figures costs once the
// traces are loaded), and fresh, figures.Load plus the first set (what a
// new process pays).
func BenchmarkFigureSet(b *testing.B) {
	b.Run("reused", func(b *testing.B) {
		ctx := benchContext(b, true)
		figureSet(b, ctx)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			figureSet(b, ctx)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, err := figures.Load(traceCacheDir, 24, true)
			if err != nil {
				b.Fatal(err)
			}
			figureSet(b, ctx)
		}
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkReplayLA24 prices one full 24-hour LA replay at 64 T3E nodes
// through a Pricer whose group work is already split: the unit of work
// behind every figure sweep.
func BenchmarkReplayLA24(b *testing.B) {
	ctx := benchContext(b, false)
	prof := machine.CrayT3E()
	pr, err := core.NewPricer(ctx.LA)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pr.Replay(prof, 64, core.DataParallel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Replay(prof, 64, core.DataParallel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChemistryColumn measures one Lcz application on one column
// (the unit the chemistry phase parallelises over).
func BenchmarkChemistryColumn(b *testing.B) {
	mech := species.StandardMechanism()
	geo := chemistry.StandardLayers()
	op, err := chemistry.NewOperator(mech, geo, chemistry.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ns, nl := mech.N(), geo.Layers()
	conc := make([]float64, ns*nl)
	bg := mech.Backgrounds()
	for l := 0; l < nl; l++ {
		copy(conc[ns*l:ns*(l+1)], bg)
	}
	env := &chemistry.CellEnv{
		TempK: []float64{298, 296, 294, 292, 290},
		Sun:   0.9,
		Vert: &chemistry.VerticalEnv{
			Kz:   []float64{50, 40, 30, 20},
			VDep: make([]float64, ns),
			Emis: make([]float64, ns),
		},
	}
	work := append([]float64(nil), conc...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, conc)
		if _, err := op.Apply(work, env, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportLayer measures one half-step of the 2-D SUPG operator
// over the LA multiscale grid for one species field.
func BenchmarkTransportLayer(b *testing.B) {
	ds, err := datasets.LA()
	if err != nil {
		b.Fatal(err)
	}
	op, err := transport.New2D(ds.Grid())
	if err != nil {
		b.Fatal(err)
	}
	in, err := ds.Provider.HourInput(12)
	if err != nil {
		b.Fatal(err)
	}
	env := &transport.Env{U: in.WindU[0], V: in.WindV[0], KH: in.KH}
	if _, err := op.Prepare(env); err != nil {
		b.Fatal(err)
	}
	field := make([]float64, ds.Shape.Cells)
	for i := range field {
		field[i] = 0.04
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.StepField(field, env, 600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYoungBoris measures the stiff integrator on a daytime urban
// parcel for one minute.
func BenchmarkYoungBoris(b *testing.B) {
	mech := species.StandardMechanism()
	in, err := chemistry.NewIntegrator(mech, chemistry.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	base := mech.Backgrounds()
	base[mech.MustIndex("NO")] = 0.02
	c := make([]float64, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(c, base)
		in.ResetStep()
		if _, err := in.Integrate(c, 1.0, 298, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedistributeData measures physically redistributing the LA
// concentration array across 8 virtual nodes (D_Trans -> D_Chem).
func BenchmarkRedistributeData(b *testing.B) {
	sh := dist.Shape{Species: 35, Layers: 5, Cells: 700}
	m, err := vm.New(machine.CrayT3E(), 8)
	if err != nil {
		b.Fatal(err)
	}
	rt := fx.NewRuntime(m)
	arr, err := fx.NewArray(rt, sh, dist.DTrans)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.Redistribute(dist.DChem); err != nil {
			b.Fatal(err)
		}
		if _, err := arr.Redistribute(dist.DTrans); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopExpHour measures one hour of the exposure model over the LA
// grid (serial reference).
func BenchmarkPopExpHour(b *testing.B) {
	ds, err := datasets.LA()
	if err != nil {
		b.Fatal(err)
	}
	model, err := popexp.NewModel(ds.Mechanism())
	if err != nil {
		b.Fatal(err)
	}
	pop, err := popexp.SyntheticPopulation(ds.Grid(), 90e3, 100e3, 40e3, 12e6)
	if err != nil {
		b.Fatal(err)
	}
	conc := ds.Provider.InitialConcentrations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.ComputeHour(conc, ds.Shape.Species, ds.Shape.Layers, pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHourInputIO measures serialising one LA hour input (the
// inputhour payload).
func BenchmarkHourInputIO(b *testing.B) {
	ds, err := datasets.LA()
	if err != nil {
		b.Fatal(err)
	}
	in, err := ds.Provider.HourInput(12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hourio.WriteHourInput(io.Discard, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHourInputGen measures the synthetic meteorology generator.
func BenchmarkHourInputGen(b *testing.B) {
	ds, err := datasets.LA()
	if err != nil {
		b.Fatal(err)
	}
	var prov *meteo.Synthetic = ds.Provider
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prov.HourInput(i % 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures the full analytic performance model.
func BenchmarkPredict(b *testing.B) {
	ctx := benchContext(b, false)
	prof := machine.CrayT3E()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.Predict(ctx.LA, prof, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoupledReplay measures pricing the coupled Airshed+PopExp
// application (Figure 13's unit of work).
func BenchmarkCoupledReplay(b *testing.B) {
	ctx := benchContext(b, false)
	model, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		b.Fatal(err)
	}
	prof := machine.IntelParagon()
	pr, err := core.NewPricer(ctx.LA)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frn.ReplayCoupled(pr, model, prof, 32, true, frn.ScenarioA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLAHour measures one fully physical daytime LA hour — the
// whole-run unit behind daemon jobs and sweeps — at virtual nodes = 1
// (the paper's sequential baseline) on the host engine at one worker
// (the serial reference) and on the shared engine, whose worker pool is
// sized by GOMAXPROCS independently of the virtual decomposition.
func BenchmarkRunLAHour(b *testing.B) {
	ds, err := datasets.LA()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		hostWorkers int
	}{
		{"engine-1", 1},
		{"engine-shared", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.Config{
					Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1,
					Hours: 1, StartHour: 12, HostWorkers: tc.hostWorkers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMiniHourPhysical measures one fully physical simulated hour of
// the Mini data set (numerics + distributed arrays + charging).
func BenchmarkMiniHourPhysical(b *testing.B) {
	ds, err := datasets.Mini()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{
			Dataset: ds, Machine: machine.CrayT3E(), Nodes: 4, Hours: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
