package figures

import (
	"fmt"
	"math"

	"airshed/internal/chemistry"
	"airshed/internal/core"
	"airshed/internal/dist"
	frn "airshed/internal/foreign"
	"airshed/internal/grid"
	"airshed/internal/machine"
	"airshed/internal/popexp"
	"airshed/internal/report"
	"airshed/internal/species"
	"airshed/internal/transport"
)

// AblationTransportScheme quantifies the paper's central algorithmic
// trade-off (Sections 2.1 and 3): the 2-D multiscale operator needs far
// fewer points than a uniform grid of equal peak resolution but
// parallelises only over layers, while the 1-D uniform splitting
// parallelises over layers x rows at a higher sequential cost. Its
// numbers read no trace, so a Context computes them once.
func (ctx *Context) AblationTransportScheme() (*Figure, error) {
	n, err := ctx.transport.get(runTransportSchemes)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-transport",
		Caption: "Ablation: 2-D multiscale SUPG vs 1-D uniform-grid splitting " +
			"(paper: uniform 1-D models offer better speedups but not necessarily better absolute performance)",
	}
	tb := report.NewTable("Transport scheme comparison (one hour, all layers and species, T3E model)",
		"Scheme", "Cells", "Seq time (s)", "Useful parallelism", "T @ P=4", "T @ P=64", "T @ P=400")
	timeAt := func(seq float64, par, p int) float64 {
		return seq * float64(dist.BlockSize(par, p)) / float64(par)
	}
	tb.AddRow("2-D multiscale SUPG", n.multiCells, n.seq2, n.par2,
		timeAt(n.seq2, n.par2, 4), timeAt(n.seq2, n.par2, 64), timeAt(n.seq2, n.par2, 400))
	tb.AddRow("1-D uniform splitting", n.uniCells, n.seq1, n.par1,
		timeAt(n.seq1, n.par1, 4), timeAt(n.seq1, n.par1, 64), timeAt(n.seq1, n.par1, 400))
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// transportRun is what AblationTransportScheme computes: each scheme's
// cell count, sequential time for one hour and useful parallelism.
type transportRun struct {
	multiCells, uniCells int
	seq2, seq1           float64
	par2, par1           int
}

// runTransportSchemes runs one hour of plume advection under both
// transport schemes and prices it on the T3E model.
func runTransportSchemes() (transportRun, error) {
	var n transportRun
	// The LA multiscale grid vs a uniform grid at the finest LA
	// resolution (level 3: 2.5 km cells over 200 km -> 80x80).
	multi, err := grid.New(200e3, 200e3, 10, 10)
	if err != nil {
		return n, err
	}
	multi.RefineNear(90e3, 100e3, 3, 700)
	if err := multi.Finalize(); err != nil {
		return n, err
	}
	uni, err := grid.Uniform(200e3, 200e3, 80, 80)
	if err != nil {
		return n, err
	}

	op2, err := transport.New2D(multi)
	if err != nil {
		return n, err
	}
	op1, err := transport.New1D(uni)
	if err != nil {
		return n, err
	}

	// One hour of advection of a plume, identical physics.
	mkEnv := func(g *grid.Grid) *transport.Env {
		env := &transport.Env{U: make([]float64, len(g.Cells)), V: make([]float64, len(g.Cells)), KH: 100}
		for i := range env.U {
			env.U[i] = 5
			env.V[i] = 1.5
		}
		return env
	}
	mkField := func(g *grid.Grid) []float64 {
		c := make([]float64, len(g.Cells))
		for i := range g.Cells {
			dx := g.Cells[i].X - 60e3
			dy := g.Cells[i].Y - 100e3
			c[i] = math.Exp(-(dx*dx + dy*dy) / (2 * 15e3 * 15e3))
		}
		return c
	}

	env2 := mkEnv(multi)
	if _, err := op2.Prepare(env2); err != nil {
		return n, err
	}
	c2 := mkField(multi)
	w2, err := op2.StepField(c2, env2, 3600)
	if err != nil {
		return n, err
	}
	env1 := mkEnv(uni)
	if _, err := op1.Prepare(env1); err != nil {
		return n, err
	}
	c1 := mkField(uni)
	w1, err := op1.StepField(c1, env1, 3600)
	if err != nil {
		return n, err
	}

	layers := 5
	// Useful parallelism: 2-D only across layers; 1-D across layers and
	// one grid dimension (rows).
	n.par2 = layers
	n.par1 = layers * uni.NX0
	prof := machine.CrayT3E()
	n.seq2 = prof.ComputeTime(w2 * 6.0 * float64(layers) * 35) // all species, all layers
	n.seq1 = prof.ComputeTime(w1 * 6.0 * float64(layers) * 35)
	n.multiCells, n.uniCells = len(multi.Cells), len(uni.Cells)
	return n, nil
}

// AblationAerosolRedist quantifies the redistribution cost the replicated
// aerosol step forces: the paper's D_Chem -> D_Repl -> D_Trans path versus
// the direct D_Chem -> D_Trans path a parallelised aerosol would allow.
func (ctx *Context) AblationAerosolRedist() (*Figure, error) {
	fig := &Figure{
		ID: "ablation-aerosol",
		Caption: "Ablation: per-step redistribution cost with the replicated aerosol " +
			"(D_Chem->D_Repl->D_Trans) vs a hypothetical parallel aerosol (D_Chem->D_Trans direct), Cray T3E, LA shape",
	}
	sh := ctx.LA.Shape
	prof := machine.CrayT3E()
	tb := report.NewTable("Per-step communication cost (ms)",
		"Nodes", "Replicated aerosol path", "Direct path", "Ratio")
	for _, p := range NodeCounts {
		cr, err := dist.NewPlan(sh, dist.DChem, dist.DRepl, p, prof.WordSize)
		if err != nil {
			return nil, err
		}
		rt, err := dist.NewPlan(sh, dist.DRepl, dist.DTrans, p, prof.WordSize)
		if err != nil {
			return nil, err
		}
		ct, err := dist.NewPlan(sh, dist.DChem, dist.DTrans, p, prof.WordSize)
		if err != nil {
			return nil, err
		}
		replicated := cr.MaxCost(prof) + rt.MaxCost(prof)
		direct := ct.MaxCost(prof)
		tb.AddRow(p, 1000*replicated, 1000*direct, replicated/direct)
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// AblationPipeline compares pipeline depths: no task parallelism, a
// 2-stage pipeline (single I/O task) and the paper's 3-stage pipeline.
func (ctx *Context) AblationPipeline() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-pipeline",
		Caption: "Ablation: pipeline depth on the Intel Paragon, LA data set " +
			"(the paper's 3-stage input/compute/output split vs a single I/O task vs none)",
	}
	par := machine.IntelParagon()
	tb := report.NewTable("Execution time (s)",
		"Nodes", "No pipeline (data parallel)", "2-stage (combined I/O)", "3-stage (paper)")
	for _, p := range ParagonCounts {
		dp, err := la.Replay(par, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		two, err := la.ReplayTaskCombined(par, p)
		if err != nil {
			return nil, err
		}
		three, err := la.Replay(par, p, core.TaskParallel)
		if err != nil {
			return nil, err
		}
		tb.AddRow(p, dp.Ledger.Total, two.Ledger.Total, three.Ledger.Total)
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// AblationForeignScenario compares the Figure 11 coupling scenarios.
func (ctx *Context) AblationForeignScenario() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-foreign",
		Caption: "Ablation: foreign-module coupling scenarios (Figure 11): A (interface node) vs " +
			"B (direct to module nodes) vs C (variable to variable), Intel Paragon, LA data set",
	}
	model, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		return nil, err
	}
	par := machine.IntelParagon()
	tb := report.NewTable("Coupled execution (s)",
		"Nodes", "Scenario A total", "A coupling", "Scenario B total", "B coupling", "Scenario C total", "C coupling")
	for _, p := range []int{16, 32, 64} {
		row := []interface{}{p}
		for _, scn := range []frn.Scenario{frn.ScenarioA, frn.ScenarioB, frn.ScenarioC} {
			r, err := frn.ReplayCoupled(la, model, par, p, true, scn)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Ledger.Total, r.CouplingSeconds)
		}
		tb.AddRow(row...)
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// AblationAllocation compares the fixed group-sizing heuristic of the
// coupled pipeline against the Fx optimal processor-allocation machinery
// (Subhlok-Vondran mapping, the paper's references [26, 27]).
func (ctx *Context) AblationAllocation() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-allocation",
		Caption: "Ablation: coupled-pipeline node allocation — fixed heuristic (popexp = P/8) vs " +
			"the Fx optimal pipeline mapping, Intel Paragon, LA data set",
	}
	model, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		return nil, err
	}
	par := machine.IntelParagon()
	tb := report.NewTable("Coupled execution time (s)",
		"Nodes", "Heuristic groups", "Heuristic time", "Optimal groups", "Optimal time", "Gain %")
	for _, p := range []int{8, 16, 32, 64} {
		hg, err := frn.GroupsFor(p)
		if err != nil {
			return nil, err
		}
		hres, err := frn.ReplayCoupledGroups(la, model, par, hg, true, frn.ScenarioA)
		if err != nil {
			return nil, err
		}
		og, err := frn.AutoGroups(la, model, par, p)
		if err != nil {
			return nil, err
		}
		ores, err := frn.ReplayCoupledGroups(la, model, par, og, true, frn.ScenarioA)
		if err != nil {
			return nil, err
		}
		gain := 100 * (hres.Ledger.Total - ores.Ledger.Total) / hres.Ledger.Total
		tb.AddRow(p,
			fmt.Sprintf("c=%d pe=%d", hg.Compute, hg.PopExp), hres.Ledger.Total,
			fmt.Sprintf("c=%d pe=%d", og.Compute, og.PopExp), ores.Ledger.Total,
			gain)
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// AblationIntegrator shows why the Young-Boris hybrid is necessary: the
// explicit scheme must track the fastest radical timescale, exploding the
// evaluation count on the photochemical mechanism. Its numbers read no
// trace, so a Context computes them once.
func (ctx *Context) AblationIntegrator() (*Figure, error) {
	n, err := ctx.integrator.get(runIntegrators)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-integrator",
		Caption: "Ablation: Young-Boris hybrid vs fully explicit integration of one daytime " +
			"parcel for 1 minute (the hybrid's stiff branch is what makes hour-scale steps affordable)",
	}
	hw, ew := n.hybrid, n.explicit
	tb := report.NewTable("Integrator comparison (1 simulated minute, daytime urban parcel)",
		"Scheme", "Substeps", "Rejected", "ProdLoss evals", "Evals ratio")
	tb.AddRow("Young-Boris hybrid", hw.Substeps, hw.Rejected, hw.Evals, 1.0)
	tb.AddRow("Fully explicit", ew.Substeps, ew.Rejected, ew.Evals, float64(ew.Evals)/float64(hw.Evals))
	note := report.NewTable("", "Note", "Value")
	note.AddRow("max relative state difference (explicit is also less accurate at its floor step)",
		fmt.Sprintf("%.3g", n.maxDiff))
	fig.Tables = append(fig.Tables, tb, note)
	return fig, nil
}

// integratorRun is what AblationIntegrator computes: the work of each
// scheme and the largest relative difference of their end states.
type integratorRun struct {
	hybrid, explicit chemistry.Work
	maxDiff          float64
}

// runIntegrators integrates one daytime parcel for a minute with the
// hybrid and the fully explicit scheme.
func runIntegrators() (integratorRun, error) {
	mech := species.StandardMechanism()
	run := func(disableStiff bool) (chemistry.Work, []float64, error) {
		cfg := chemistry.DefaultConfig()
		cfg.DisableStiff = disableStiff
		cfg.MinDt = 1e-4
		in, err := chemistry.NewIntegrator(mech, cfg)
		if err != nil {
			return chemistry.Work{}, nil, err
		}
		c := mech.Backgrounds()
		c[mech.MustIndex("NO")] = 0.02
		c[mech.MustIndex("NO2")] = 0.03
		w, err := in.Integrate(c, 1.0, 298, 1.0)
		return w, c, err
	}
	var n integratorRun
	hw, hc, err := run(false)
	if err != nil {
		return n, err
	}
	ew, ec, err := run(true)
	if err != nil {
		return n, err
	}
	for i := range hc {
		d := math.Abs(hc[i] - ec[i])
		if s := math.Abs(hc[i]) + 1e-9; d/s > n.maxDiff {
			n.maxDiff = d / s
		}
	}
	n.hybrid, n.explicit = hw, ew
	return n, nil
}

// Ablations runs all ablation studies.
func (ctx *Context) Ablations() ([]*Figure, error) {
	builders := []func() (*Figure, error){
		ctx.AblationTransportScheme,
		ctx.AblationAerosolRedist,
		ctx.AblationPipeline,
		ctx.AblationForeignScenario,
		ctx.AblationAllocation,
		ctx.AblationIntegrator,
		ctx.StudyLoadBalance,
		ctx.StudyDiurnalWork,
	}
	var figs []*Figure
	for _, b := range builders {
		f, err := b()
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}
