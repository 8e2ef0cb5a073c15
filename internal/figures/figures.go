// Package figures regenerates every evaluation artifact of the paper —
// Figures 2 through 7, 9 and 13 plus the Section 4.3 parameter table —
// and the ablation studies listed in DESIGN.md, as tables and ASCII
// charts. It is the shared engine behind cmd/benchfig and the repository
// benchmarks.
//
// The expensive physical runs (the 24-hour LA and NE simulations) execute
// once and are cached as work traces (core.CachedTrace); every figure is
// then priced by replaying the traces on the paper's machine profiles.
package figures

import (
	"fmt"
	"path/filepath"
	"sync"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/dist"
	frn "airshed/internal/foreign"
	"airshed/internal/machine"
	"airshed/internal/perfmodel"
	"airshed/internal/popexp"
	"airshed/internal/report"
	"airshed/internal/species"
	"airshed/internal/vm"
)

// NodeCounts is the node axis of the paper's figures.
var NodeCounts = []int{4, 8, 16, 32, 64, 128}

// ParagonCounts is the node axis of the Paragon experiments (Figures 9
// and 13 stop at 64).
var ParagonCounts = []int{4, 8, 16, 32, 64}

// Context holds the cached work traces.
type Context struct {
	LA *core.Trace
	NE *core.Trace
	// Hours is the simulated duration the traces cover.
	Hours int

	// One Pricer per trace, made on first use: the traces are
	// read-only after Load, so each one is validated once and its
	// per-group work lives as long as the Context.
	mu      sync.Mutex
	pricers map[*core.Trace]*core.Pricer

	// The numbers of the two ablations that read no trace, computed on
	// first use; every call still builds a fresh Figure from them.
	transport  once[transportRun]
	integrator once[integratorRun]

	// Claim bookkeeping from the last WriteExperiments run.
	lastClaims, lastHeld int
	lastFailures         []string
}

// once holds a value computed on first use, with its error.
type once[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the value, computing it with f on the first call.
func (o *once[T]) get(f func() (T, error)) (T, error) {
	o.once.Do(func() { o.v, o.err = f() })
	return o.v, o.err
}

// Load builds (or loads from cacheDir) the LA trace, and the NE trace when
// includeNE is set. hours is the simulated duration (the paper uses 24).
func Load(cacheDir string, hours int, includeNE bool) (*Context, error) {
	ctx := &Context{Hours: hours}
	run := func(build func() (*datasets.Dataset, error)) (*core.Trace, error) {
		ds, err := build()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s%dh.trace", ds.Name, hours)
		return core.CachedTrace(filepath.Join(cacheDir, name), func() (*core.Trace, error) {
			res, err := core.Run(core.Config{
				Dataset: ds,
				Machine: machine.CrayT3E(),
				Nodes:   1,
				Hours:   hours,
				Mode:    core.DataParallel,
			})
			if err != nil {
				return nil, err
			}
			return res.Trace, nil
		})
	}
	var err error
	if ctx.LA, err = run(datasets.LA); err != nil {
		return nil, fmt.Errorf("figures: building LA trace: %w", err)
	}
	if includeNE {
		if ctx.NE, err = run(datasets.NE); err != nil {
			return nil, fmt.Errorf("figures: building NE trace: %w", err)
		}
	}
	return ctx, nil
}

// Figure is one regenerated evaluation artifact.
type Figure struct {
	ID      string
	Caption string
	Tables  []*report.Table
	Charts  []*report.Chart
	Gantts  []*report.Gantt
}

// pricer returns the Pricer of one of the context's traces.
func (ctx *Context) pricer(tr *core.Trace) (*core.Pricer, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if pr, ok := ctx.pricers[tr]; ok {
		return pr, nil
	}
	pr, err := core.NewPricer(tr)
	if err != nil {
		return nil, err
	}
	if ctx.pricers == nil {
		ctx.pricers = make(map[*core.Trace]*core.Pricer)
	}
	ctx.pricers[tr] = pr
	return pr, nil
}

// Fig2 reproduces Figure 2: execution times of the LA data set on the
// T3E, T3D and Paragon, 4-128 nodes, as a table plus linear- and
// log-scale charts.
func (ctx *Context) Fig2() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig2",
		Caption: "Figure 2: Execution times for the Airshed application using the LA data set " +
			"(paper: near-parallel log-scale curves; T3D just under 2x, T3E ~10x faster than Paragon)",
	}
	tb := report.NewTable("Execution time (s), LA data set", "Nodes", "Cray T3E", "Cray T3D", "Intel Paragon")
	lin := report.NewChart("Figure 2a: time vs nodes (linear)")
	lg := report.NewChart("Figure 2b: time vs nodes (log-log)")
	lg.LogX, lg.LogY = true, true
	var xs []float64
	series := map[string][]float64{}
	for _, p := range NodeCounts {
		row := []interface{}{p}
		xs = append(xs, float64(p))
		for _, prof := range machine.PaperTrio() {
			rr, err := la.Replay(prof, p, core.DataParallel)
			if err != nil {
				return nil, err
			}
			row = append(row, rr.Ledger.Total)
			series[prof.Name] = append(series[prof.Name], rr.Ledger.Total)
		}
		tb.AddRow(row...)
	}
	for _, prof := range machine.PaperTrio() {
		lin.Add(prof.Name, xs, series[prof.Name])
		lg.Add(prof.Name, xs, series[prof.Name])
	}
	fig.Tables = append(fig.Tables, tb)
	fig.Charts = append(fig.Charts, lin, lg)
	return fig, nil
}

// Fig3 reproduces Figure 3: LA vs NE execution times on the T3E. Requires
// the NE trace.
func (ctx *Context) Fig3() (*Figure, error) {
	if ctx.NE == nil {
		return nil, fmt.Errorf("figures: Fig3 needs the NE trace (run with NE enabled)")
	}
	laPr, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	nePr, err := ctx.pricer(ctx.NE)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig3",
		Caption: "Figure 3: Airshed execution times on the Cray T3E for the LA and NE data sets " +
			"(paper: broadly similar speedup patterns)",
	}
	tb := report.NewTable("Execution time (s), Cray T3E", "Nodes", "LA Dataset", "NE Dataset", "NE/LA")
	lg := report.NewChart("Figure 3b: time vs nodes (log-log)")
	lg.LogX, lg.LogY = true, true
	t3e := machine.CrayT3E()
	var xs, las, nes []float64
	for _, p := range NodeCounts {
		la, err := laPr.Replay(t3e, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		ne, err := nePr.Replay(t3e, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		tb.AddRow(p, la.Ledger.Total, ne.Ledger.Total, ne.Ledger.Total/la.Ledger.Total)
		xs = append(xs, float64(p))
		las = append(las, la.Ledger.Total)
		nes = append(nes, ne.Ledger.Total)
	}
	lg.Add("LA Dataset", xs, las)
	lg.Add("NE Dataset", xs, nes)
	fig.Tables = append(fig.Tables, tb)
	fig.Charts = append(fig.Charts, lg)
	return fig, nil
}

// Fig4 reproduces Figure 4: scaling of the application components on the
// T3E with the LA data set.
func (ctx *Context) Fig4() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig4",
		Caption: "Figure 4: Scaling of Airshed components on a Cray T3E, LA data set " +
			"(paper: chemistry scales ~linearly, transport saturates at the 5-layer limit, I/O constant, communication small)",
	}
	tb := report.NewTable("Component times (s), Cray T3E, LA",
		"Nodes", "Chemistry", "Transport", "I/O Processing", "Communication", "Aerosol", "Total")
	ch := report.NewChart("Figure 4: component times vs nodes")
	ch.LogY = true
	t3e := machine.CrayT3E()
	var xs []float64
	comp := map[string][]float64{}
	for _, p := range NodeCounts {
		rr, err := la.Replay(t3e, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		l := rr.Ledger
		tb.AddRow(p, l.ByCat[vm.CatChemistry], l.ByCat[vm.CatTransport],
			l.ByCat[vm.CatIO], l.ByCat[vm.CatComm], l.ByCat[vm.CatAerosol], l.Total)
		xs = append(xs, float64(p))
		comp["chemistry"] = append(comp["chemistry"], l.ByCat[vm.CatChemistry])
		comp["transport"] = append(comp["transport"], l.ByCat[vm.CatTransport])
		comp["io"] = append(comp["io"], l.ByCat[vm.CatIO])
		comp["communication"] = append(comp["communication"], l.ByCat[vm.CatComm])
	}
	for _, name := range []string{"chemistry", "transport", "io", "communication"} {
		ch.Add(name, xs, comp[name])
	}
	fig.Tables = append(fig.Tables, tb)
	fig.Charts = append(fig.Charts, ch)
	return fig, nil
}

// Fig5 reproduces Figure 5: the per-kind redistribution times on the T3E
// with the LA data set.
func (ctx *Context) Fig5() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig5",
		Caption: "Figure 5: Scaling of communication steps (redistribution kinds), Cray T3E, LA data set " +
			"(paper: D_Chem->D_Repl highest and slowly rising; D_Repl->D_Trans drops 4->8 then flat; " +
			"D_Trans->D_Chem drops 4->8 then gently rises)",
	}
	tb := report.NewTable("Redistribution time over the run (s), Cray T3E, LA",
		"Nodes", core.KindReplToTrans, core.KindTransToChem, core.KindChemToRepl, core.KindTransToRepl)
	ch := report.NewChart("Figure 5: redistribution times vs nodes")
	t3e := machine.CrayT3E()
	var xs []float64
	series := map[string][]float64{}
	for _, p := range NodeCounts {
		rr, err := la.Replay(t3e, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		tb.AddRow(p, rr.CommSeconds[core.KindReplToTrans], rr.CommSeconds[core.KindTransToChem],
			rr.CommSeconds[core.KindChemToRepl], rr.CommSeconds[core.KindTransToRepl])
		xs = append(xs, float64(p))
		for _, k := range core.RedistKinds() {
			series[k] = append(series[k], rr.CommSeconds[k])
		}
	}
	for _, k := range []string{core.KindChemToRepl, core.KindTransToChem, core.KindReplToTrans} {
		ch.Add(k, xs, series[k])
	}
	fig.Tables = append(fig.Tables, tb)
	fig.Charts = append(fig.Charts, ch)
	return fig, nil
}

// Fig6 reproduces Figure 6: predicted (analytic model, Section 4.2) versus
// measured (replayed) redistribution times on the T3E.
func (ctx *Context) Fig6() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig6",
		Caption: "Figure 6: Predicted (P) and measured (M) times for the communication steps, " +
			"Cray T3E, LA data set (paper: estimates close to measurements)",
	}
	tb := report.NewTable("Communication over the run (s): predicted vs measured",
		"Nodes",
		"Repl->Trans M", "Repl->Trans P",
		"Trans->Chem M", "Trans->Chem P",
		"Chem->Repl M", "Chem->Repl P")
	t3e := machine.CrayT3E()
	for _, p := range NodeCounts {
		rr, err := la.Replay(t3e, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		pred, err := perfmodel.PredictWith(la, t3e, p)
		if err != nil {
			return nil, err
		}
		tb.AddRow(p,
			rr.CommSeconds[core.KindReplToTrans], pred.CommByKind[core.KindReplToTrans],
			rr.CommSeconds[core.KindTransToChem], pred.CommByKind[core.KindTransToChem],
			rr.CommSeconds[core.KindChemToRepl], pred.CommByKind[core.KindChemToRepl])
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// Fig7 reproduces Figure 7: predicted versus measured computation phase
// times on the T3E.
func (ctx *Context) Fig7() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig7",
		Caption: "Figure 7: Predicted (P) and measured (M) times for the computation phases, " +
			"Cray T3E, LA data set (paper: computation estimates even closer than communication)",
	}
	tb := report.NewTable("Computation phases (s): predicted vs measured",
		"Nodes", "Chem M", "Chem P", "Trans M", "Trans P", "I/O M", "I/O P", "Total M", "Total P")
	t3e := machine.CrayT3E()
	for _, p := range NodeCounts {
		rr, err := la.Replay(t3e, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		pred, err := perfmodel.PredictWith(la, t3e, p)
		if err != nil {
			return nil, err
		}
		tb.AddRow(p,
			rr.Ledger.ByCat[vm.CatChemistry], pred.Chemistry,
			rr.Ledger.ByCat[vm.CatTransport], pred.Transport,
			rr.Ledger.ByCat[vm.CatIO], pred.IO,
			rr.Ledger.Total, pred.Total)
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// Fig9 reproduces Figure 9: speedup of the data-parallel versus the
// task+data-parallel Airshed on the Intel Paragon, including the paper's
// observation about the sequential I/O fraction.
func (ctx *Context) Fig9() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig9",
		Caption: "Figure 9: Speedup on the Intel Paragon, data-parallel vs task+data-parallel " +
			"(paper: task parallelism removes the I/O bottleneck; ~25% faster at 64 nodes)",
	}
	par := machine.IntelParagon()
	seq, err := la.Replay(par, 1, core.DataParallel)
	if err != nil {
		return nil, err
	}
	ioFrac1 := seq.Ledger.ByCat[vm.CatIO] / seq.Ledger.Total

	tb := report.NewTable("Speedup vs 1-node sequential, Intel Paragon, LA",
		"Nodes", "Data Parallel", "Task+Data Parallel", "Time DP (s)", "Time TP (s)", "Improvement %")
	ch := report.NewChart("Figure 9: speedup vs nodes")
	var xs, dps, tps []float64
	var ioFrac64 float64
	for _, p := range ParagonCounts {
		dp, err := la.Replay(par, p, core.DataParallel)
		if err != nil {
			return nil, err
		}
		tp, err := la.Replay(par, p, core.TaskParallel)
		if err != nil {
			return nil, err
		}
		imp := 100 * (dp.Ledger.Total - tp.Ledger.Total) / dp.Ledger.Total
		tb.AddRow(p, seq.Ledger.Total/dp.Ledger.Total, seq.Ledger.Total/tp.Ledger.Total,
			dp.Ledger.Total, tp.Ledger.Total, imp)
		xs = append(xs, float64(p))
		dps = append(dps, seq.Ledger.Total/dp.Ledger.Total)
		tps = append(tps, seq.Ledger.Total/tp.Ledger.Total)
		if p == 64 {
			ioFrac64 = dp.Ledger.ByCat[vm.CatIO] / dp.Ledger.Total
		}
	}
	ch.Add("Data Parallel", xs, dps)
	ch.Add("Task and Data Parallel", xs, tps)
	note := report.NewTable("Section 5 observation: sequential I/O processing fraction (Paragon)",
		"Configuration", "I/O fraction %")
	note.AddRow("sequential (1 node)", 100*ioFrac1)
	note.AddRow("data-parallel, 64 nodes", 100*ioFrac64)
	fig.Tables = append(fig.Tables, tb, note)
	fig.Charts = append(fig.Charts, ch)
	return fig, nil
}

// Fig13 reproduces Figure 13: the coupled Airshed+PopExp application with
// PopExp as a native task versus as a PVM foreign module, on the Paragon.
func (ctx *Context) Fig13() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig13",
		Caption: "Figure 13: Airshed+PopExp with PopExp native vs as PVM foreign module, Intel Paragon " +
			"(paper: a fixed, relatively small, extra overhead for the foreign module)",
	}
	model, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		return nil, err
	}
	par := machine.IntelParagon()
	tb := report.NewTable("Coupled execution time (s), Intel Paragon, LA",
		"Nodes", "Native Task", "Foreign Module", "Overhead (s)", "Overhead %")
	ch := report.NewChart("Figure 13: coupled time vs nodes")
	ch.LogY = true
	var xs, nats, frns []float64
	for _, p := range ParagonCounts {
		nat, err := frn.ReplayCoupled(la, model, par, p, false, frn.ScenarioA)
		if err != nil {
			return nil, err
		}
		fr, err := frn.ReplayCoupled(la, model, par, p, true, frn.ScenarioA)
		if err != nil {
			return nil, err
		}
		over := fr.Ledger.Total - nat.Ledger.Total
		tb.AddRow(p, nat.Ledger.Total, fr.Ledger.Total, over, 100*over/nat.Ledger.Total)
		xs = append(xs, float64(p))
		nats = append(nats, nat.Ledger.Total)
		frns = append(frns, fr.Ledger.Total)
	}
	ch.Add("Native Task", xs, nats)
	ch.Add("Foreign Module", xs, frns)
	fig.Tables = append(fig.Tables, tb)
	fig.Charts = append(fig.Charts, ch)
	return fig, nil
}

// Params reproduces the Section 4.3 parameter estimation: fitting L, G
// and H from communication measurements at small node counts.
func (ctx *Context) Params() (*Figure, error) {
	fig := &Figure{
		ID: "params",
		Caption: "Section 4.3: communication parameters estimated from small-node measurements " +
			"(paper's T3E values: L=5.2e-5 s/msg, G=2.47e-8 s/B, H=2.04e-8 s/B)",
	}
	tb := report.NewTable("Fitted communication parameters",
		"Machine", "L fitted", "L true", "G fitted", "G true", "H fitted", "H true")
	for _, prof := range machine.PaperTrio() {
		samples, err := perfmodel.SamplesFromPlans(ctx.LA.Shape, prof, []int{2, 4, 8}, func(t dist.NodeTraffic) float64 {
			return t.Cost(prof)
		})
		if err != nil {
			return nil, err
		}
		l, g, h, err := perfmodel.FitLGH(samples)
		if err != nil {
			return nil, err
		}
		tb.AddRow(prof.Name, l, prof.LatencySec, g, prof.ByteSec, h, prof.CopySec)
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// All regenerates every figure available in this context (Fig3 only when
// the NE trace is loaded).
func (ctx *Context) All() ([]*Figure, error) {
	builders := []func() (*Figure, error){
		ctx.Fig2, ctx.Fig4, ctx.Fig5, ctx.Fig6, ctx.Fig7, ctx.Fig8, ctx.Fig9, ctx.Fig12, ctx.Fig13, ctx.Params,
	}
	if ctx.NE != nil {
		builders = append([]func() (*Figure, error){ctx.Fig2, ctx.Fig3}, builders[1:]...)
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
