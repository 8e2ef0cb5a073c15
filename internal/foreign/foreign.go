// Package foreign implements the paper's Section 6: coupling an external
// parallel module (the PVM PopExp program) to the Fx Airshed program
// through a shared collective-communication layer.
//
// In the paper's model a foreign module is an independent executable
// represented inside the native Fx program as a task on a node subgroup;
// data moves between the programs through variables mapped onto that
// task. Three data paths are considered (Figure 11): scenario A routes
// everything through the module's interface node (simplest, extra
// copies — the paper's prototype and the default here), scenario B sends
// directly to all module nodes, and scenario C transfers variable to
// variable (the idealised native path).
//
// The package provides both the real coupling (a Coupler that runs the
// PVM PopExp tasks and physically moves concentration data through pack/
// unpack buffers) and the cost model used by the Figure 13 reproduction
// (ReplayCoupled: a 4-stage pipelined schedule — input, compute, output,
// PopExp — with the per-scenario coupling overheads charged).
package foreign

import (
	"fmt"

	"airshed/internal/core"
	"airshed/internal/dist"
	"airshed/internal/fx"
	"airshed/internal/machine"
	"airshed/internal/popexp"
	"airshed/internal/pvm"
	"airshed/internal/vm"
)

// Scenario selects the Figure 11 data path.
type Scenario int

const (
	// ScenarioA routes data through the foreign module's interface
	// node, which redistributes it internally (the prototype).
	ScenarioA Scenario = iota
	// ScenarioB sends directly to every node of the foreign module.
	ScenarioB
	// ScenarioC transfers directly between native and foreign
	// variables (the idealised, compiler-integrated path; equals the
	// native task's cost).
	ScenarioC
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioA:
		return "A (interface node)"
	case ScenarioB:
		return "B (direct to module nodes)"
	case ScenarioC:
		return "C (variable to variable)"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// --- Real coupling: drive the PVM PopExp from native code ---

// Coupler owns a running PVM PopExp module and the representative-task
// plumbing to feed it hour snapshots.
type Coupler struct {
	machine *pvm.Machine
	rep     *pvm.Task
	workers []int
	model   *popexp.Model
	pop     *popexp.Population
	ns, nl  int
	stopped bool
}

// NewCoupler spawns a PVM PopExp module with the given number of worker
// tasks and returns the coupler whose representative task feeds it.
func NewCoupler(model *popexp.Model, pop *popexp.Population, ns, nl, workers int) (*Coupler, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("foreign: need at least one worker, got %d", workers)
	}
	c := &Coupler{
		machine: pvm.NewMachine(),
		model:   model,
		pop:     pop,
		ns:      ns,
		nl:      nl,
	}
	c.rep = c.machine.SpawnHandle()
	for w := 0; w < workers; w++ {
		tid := c.machine.Spawn(func(t *pvm.Task) {
			// Worker errors surface as missing results in
			// ProcessHour; the loop exits on the stop message.
			_ = popexp.PVMWorker(t, model, pop, ns, nl)
		})
		c.workers = append(c.workers, tid)
	}
	return c, nil
}

// ProcessHour ships one hour's concentration array into the module and
// returns the hour's exposure. The interaction is the paper's
// representative-task pattern: the native side writes the mapped variable
// (here: packs and sends), the module computes concurrently with whatever
// the native program does next.
func (c *Coupler) ProcessHour(conc []float64) (*popexp.Exposure, error) {
	if c.stopped {
		return nil, fmt.Errorf("foreign: coupler already stopped")
	}
	return popexp.PVMMaster(c.rep, c.workers, c.model, c.pop, conc, c.ns, c.nl)
}

// Stats returns the representative task's traffic counters (the volume
// that crossed the native/foreign boundary).
func (c *Coupler) Stats() pvm.Stats { return c.rep.Stats() }

// Stop shuts the module down and waits for its tasks.
func (c *Coupler) Stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	if err := popexp.StopWorkers(c.rep, c.workers); err != nil {
		return err
	}
	c.machine.Wait()
	return nil
}

// --- Cost model: the Figure 13 pipeline ---

// CoupledGroups describes the node partition of the coupled application.
type CoupledGroups struct {
	Input   int
	Output  int
	PopExp  int
	Compute int
}

// GroupsFor partitions p nodes for the coupled pipeline: one input node,
// one output node, ~p/8 (at least 1) PopExp nodes, the rest compute.
// Requires p >= 4.
func GroupsFor(p int) (CoupledGroups, error) {
	if p < 4 {
		return CoupledGroups{}, fmt.Errorf("foreign: coupled pipeline needs at least 4 nodes, got %d", p)
	}
	pe := p / 8
	if pe < 1 {
		pe = 1
	}
	return CoupledGroups{Input: 1, Output: 1, PopExp: pe, Compute: p - 2 - pe}, nil
}

// CoupledResult prices one coupled run.
type CoupledResult struct {
	Ledger vm.Ledger
	// Timeline records the busy interval of each (stage, hour) — the
	// data behind the paper's Figure 12 pipeline diagram.
	Timeline []core.StageInterval
	// CouplingSeconds is the summed time of moving the hourly
	// concentration data into the PopExp module (the cost Figure 11's
	// scenarios trade off; compare native vs foreign runs to get the
	// foreign-module overhead of Figure 13).
	CouplingSeconds float64
	Groups          CoupledGroups
}

// AutoGroups sizes the coupled pipeline's node groups with the Fx
// processor-allocation machinery (fx.OptimalPipelineMapping, the paper's
// references [26, 27]): per-hour stage costs are estimated from the trace
// with the Section 4 model, and nodes are divided to minimise the
// pipeline bottleneck. This is the extension the paper sketches: "the
// techniques used in Fx to manage processor allocation among tasks can be
// extended to foreign modules".
func AutoGroups(pr *core.Pricer, model *popexp.Model, prof *machine.Profile, p int) (CoupledGroups, error) {
	tr := pr.Trace()
	if p < 4 {
		return CoupledGroups{}, fmt.Errorf("foreign: coupled pipeline needs at least 4 nodes, got %d", p)
	}
	hours := float64(len(tr.Hours))
	var inCost, outCost float64
	for hi := range tr.Hours {
		h := &tr.Hours[hi]
		inCost += prof.IOTime(h.InBytes) + prof.ComputeTime(h.PretransFlops)
		outCost += prof.IOTime(h.OutBytes)
	}
	inCost /= hours
	outCost /= hours
	sums := pr.Sums()
	chemHour := prof.ComputeTime(sums.Chem) / hours
	transHour := prof.ComputeTime(sums.Transport) / hours
	aeroHour := prof.ComputeTime(sums.Aero) / hours
	popHour := prof.ComputeTime(popexp.WorkScale * float64(tr.Shape.Cells*model.Cohorts*model.NumSpecies()))

	compute := func(q int) float64 {
		// Chemistry parallel over cells, transport over layers,
		// aerosol replicated — the Section 4.1 model per stage.
		return fx.DataParallelCost(chemHour, tr.Shape.Cells, 0)(q) +
			fx.DataParallelCost(transHour, tr.Shape.Layers, 0)(q) +
			aeroHour
	}
	stages := []fx.TaskCost{
		fx.SequentialCost(inCost),
		compute,
		fx.SequentialCost(outCost),
		fx.DataParallelCost(popHour, tr.Shape.Cells, 0),
	}
	m, err := fx.OptimalPipelineMapping(p, stages)
	if err != nil {
		return CoupledGroups{}, err
	}
	g := CoupledGroups{Input: m.Nodes[0], Compute: m.Nodes[1], Output: m.Nodes[2], PopExp: m.Nodes[3]}
	// The replay layout uses exactly one input and one output node;
	// fold any extra sequential-stage nodes into the compute group.
	g.Compute += (g.Input - 1) + (g.Output - 1)
	g.Input, g.Output = 1, 1
	// Unassigned nodes (the optimizer may leave slack on cost plateaus)
	// also join the compute group.
	g.Compute += p - (g.Input + g.Output + g.PopExp + g.Compute)
	return g, nil
}

// ReplayCoupled prices the combined Airshed+PopExp application (the
// paper's Figure 13): the Airshed trace runs under the Section 5 pipeline
// extended with a PopExp stage, either as a native Fx task (foreign =
// false) or as a PVM foreign module coupled under the given scenario
// (foreign = true). Node groups are sized with the default heuristic
// (GroupsFor); use ReplayCoupledGroups for explicit or optimised sizes.
func ReplayCoupled(pr *core.Pricer, model *popexp.Model, prof *machine.Profile, p int, foreign bool, scn Scenario) (*CoupledResult, error) {
	groups, err := GroupsFor(p)
	if err != nil {
		return nil, err
	}
	return ReplayCoupledGroups(pr, model, prof, groups, foreign, scn)
}

// ReplayCoupledGroups is ReplayCoupled with an explicit node partition.
func ReplayCoupledGroups(pr *core.Pricer, model *popexp.Model, prof *machine.Profile, groups CoupledGroups, foreign bool, scn Scenario) (*CoupledResult, error) {
	tr := pr.Trace()
	if groups.Input != 1 || groups.Output != 1 {
		return nil, fmt.Errorf("foreign: the pipeline uses exactly one input and one output node, got %+v", groups)
	}
	if groups.Compute < 1 || groups.PopExp < 1 {
		return nil, fmt.Errorf("foreign: degenerate groups %+v", groups)
	}
	p := groups.Input + groups.Output + groups.Compute + groups.PopExp
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	// Node layout: [input][output][popexp...][compute...].
	nodes := m.AllNodes()
	popNodes := nodes[2 : 2+groups.PopExp]
	compute := nodes[2+groups.PopExp:]
	stages, err := pr.TaskStages(m, 0, compute, 1)
	if err != nil {
		return nil, err
	}
	res := &CoupledResult{Groups: groups}

	concBytes := tr.Shape.Bytes(prof.WordSize)
	// Per-hour PopExp work: the dose kernel over every cell, cohort and
	// tracked species.
	popFlopsHour := popexp.WorkScale * float64(tr.Shape.Cells*model.Cohorts*model.NumSpecies())

	computeHour := stages[1].Charge
	stages[1].Charge = func(h int) {
		computeHour(h)
		// Native-side handoff to PopExp. In the all-Fx version the
		// compiler-generated transfer spreads over the compute group
		// (every node ships its slice); in the foreign prototype the
		// single representative task packs the whole array through
		// the shared-library boundary and ships it synchronously —
		// the small fixed overhead of Figure 13 sits on the compute
		// critical path here.
		if foreign && scn != ScenarioC {
			m.ChargeCommAs(compute[0], vm.CatComm, 2, concBytes, 2*concBytes)
		} else {
			for _, n := range compute {
				m.ChargeCommAs(n, vm.CatComm, 1, concBytes/int64(groups.Compute), 0)
			}
		}
		m.BarrierGroup(compute)
	}
	// Stage 4: PopExp consumes each hour's concentrations once the
	// compute stage has produced them.
	stages = append(stages, core.Stage{Name: "popexp", Nodes: popNodes, After: 1, Charge: func(int) {
		couplingBefore := m.GroupElapsed(popNodes)
		chargeCoupling(m, popNodes, concBytes, foreign, scn)
		res.CouplingSeconds += m.GroupElapsed(popNodes) - couplingBefore
		// The exposure computation, block-partitioned over the
		// module's nodes.
		for i, n := range popNodes {
			share := float64(dist.BlockOwner(tr.Shape.Cells, groups.PopExp, i).Len()) / float64(tr.Shape.Cells)
			m.ChargeCompute(n, vm.CatPopExp, popFlopsHour*share)
		}
		m.BarrierGroup(popNodes)
	}})
	res.Timeline = core.RunPipeline(m, len(tr.Hours), stages)
	res.Ledger = m.Ledger()
	return res, nil
}

// chargeCoupling prices the hour snapshot's journey into the PopExp
// module under the given path.
func chargeCoupling(m *vm.Machine, popNodes []int, bytes int64, foreign bool, scn Scenario) {
	w := len(popNodes)
	if !foreign || scn == ScenarioC {
		// Native task / idealised coupling: data lands directly in
		// the module's mapped variables, one slice per node.
		for _, n := range popNodes {
			m.ChargeCommAs(n, vm.CatComm, 1, bytes/int64(w), 0)
		}
		m.BarrierGroup(popNodes)
		return
	}
	switch scn {
	case ScenarioA:
		// Through the interface node: receive the whole array, pack/
		// unpack copies across the process boundary, then an internal
		// redistribution to every module node.
		iface := popNodes[0]
		m.ChargeCommAs(iface, vm.CatComm, 1, bytes, 2*bytes)
		for _, n := range popNodes[1:] {
			m.ChargeCommAs(iface, vm.CatComm, 1, bytes, 0)
			m.ChargeCommAs(n, vm.CatComm, 1, bytes, 0)
		}
	case ScenarioB:
		// Directly to all module nodes: the native side sends w
		// messages; each module node receives its slice plus the
		// boundary pack/unpack copy.
		for _, n := range popNodes {
			m.ChargeCommAs(n, vm.CatComm, 1, bytes/int64(w), 2*bytes/int64(w))
		}
	}
	m.BarrierGroup(popNodes)
}
