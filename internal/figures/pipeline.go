package figures

import (
	"airshed/internal/core"
	frn "airshed/internal/foreign"
	"airshed/internal/machine"
	"airshed/internal/popexp"
	"airshed/internal/report"
	"airshed/internal/species"
)

// ganttHours is how many leading hours the pipeline diagrams draw.
const ganttHours = 6

// timelineGantt renders the first hours of a replay timeline.
func timelineGantt(title string, rows []string, timeline []core.StageInterval) *report.Gantt {
	g := report.NewGantt(title, rows...)
	for _, iv := range timeline {
		if iv.Hour >= ganttHours {
			continue
		}
		g.Add(iv.Stage, byte('0'+iv.Hour%10), iv.Start, iv.End)
	}
	return g
}

// Fig8 reproduces Figure 8 as a measured artifact: the paper draws the
// 3-stage pipelined task structure ("Processing Inputs Hour i+1 |
// Transport/Chemistry Hour i | Processing Outputs Hour i-1") as a diagram;
// here the same structure is rendered from the actual replayed schedule on
// the Intel Paragon.
func (ctx *Context) Fig8() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig8",
		Caption: "Figure 8: Pipelined task parallelism in Airshed — the measured schedule " +
			"(input reads hour i+1 while hour i computes and hour i-1 writes), Intel Paragon, 16 nodes",
	}
	rr, err := la.Replay(machine.IntelParagon(), 16, core.TaskParallel)
	if err != nil {
		return nil, err
	}
	g := timelineGantt("Pipeline schedule, first hours (digits mark the hour being processed)",
		[]string{"input", "compute", "output"}, rr.Timeline)
	fig.Gantts = append(fig.Gantts, g)
	tb := report.NewTable("Stage busy time over the run (s)", "Stage", "Busy until")
	for _, stage := range []string{"input", "compute", "output"} {
		tb.AddRow(stage, rr.StageBound[stage])
	}
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}

// Fig12 reproduces Figure 12 likewise: the 4-stage structure of the
// combined Airshed + PopExp computation, rendered from the replayed
// coupled schedule.
func (ctx *Context) Fig12() (*Figure, error) {
	la, err := ctx.pricer(ctx.LA)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig12",
		Caption: "Figure 12: The structure of the Airshed and PopExp computation — the measured " +
			"4-stage pipelined schedule (PopExp consumes hour i alongside output processing), Intel Paragon, 32 nodes",
	}
	model, err := popexp.NewModel(species.StandardMechanism())
	if err != nil {
		return nil, err
	}
	rr, err := frn.ReplayCoupled(la, model, machine.IntelParagon(), 32, true, frn.ScenarioA)
	if err != nil {
		return nil, err
	}
	g := timelineGantt("Coupled pipeline schedule, first hours",
		[]string{"input", "compute", "output", "popexp"}, rr.Timeline)
	fig.Gantts = append(fig.Gantts, g)
	tb := report.NewTable("Node groups", "Stage", "Nodes")
	tb.AddRow("input", rr.Groups.Input)
	tb.AddRow("compute", rr.Groups.Compute)
	tb.AddRow("output", rr.Groups.Output)
	tb.AddRow("popexp", rr.Groups.PopExp)
	fig.Tables = append(fig.Tables, tb)
	return fig, nil
}
