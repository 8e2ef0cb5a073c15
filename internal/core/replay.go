package core

import (
	"fmt"

	"airshed/internal/dist"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// ReplayResult is the priced outcome of replaying a trace on a machine.
type ReplayResult struct {
	Ledger       vm.Ledger
	CommSeconds  map[string]float64
	RedistCounts map[string]int
	// NodeUtilization and Efficiency mirror Result's fields: each node's
	// busy fraction under the replayed schedule and their average. Price
	// takes a run's from its data-parallel replay.
	NodeUtilization []float64
	Efficiency      float64
	// StageBound reports, for task-parallel replays, the per-stage busy
	// times (input, compute, output) that bound the pipeline.
	StageBound map[string]float64
	// Timeline records, for pipelined replays, the busy interval of each
	// (stage, hour) — the data behind the paper's Figure 8 and Figure 12
	// pipeline diagrams.
	Timeline []StageInterval
}

// StageInterval is one busy interval of a pipeline stage.
type StageInterval struct {
	// Stage names the pipeline stage ("input", "compute", "output",
	// "popexp").
	Stage string
	// Hour is the simulated hour the stage processed.
	Hour int
	// Start and End bound the busy interval in virtual seconds.
	Start, End float64
}

// Replay prices a recorded trace on a machine profile with p nodes in the
// given mode, without recomputing any numerics. Price sets a run's ledger
// from the replay of its own trace, and the benchmark harness uses it to
// sweep node counts and machines (Figures 2-7, 9).
func Replay(tr *Trace, prof *machine.Profile, p int, mode Mode) (*ReplayResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("core: node count must be positive, got %d", p)
	}
	switch mode {
	case DataParallel:
		return replayData(tr, prof, p)
	case TaskParallel:
		if p < 3 {
			return nil, fmt.Errorf("core: task-parallel replay needs at least 3 nodes, got %d", p)
		}
		return replayTask(tr, prof, p)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", mode)
	}
}

// RedistPlans holds the three redistribution plans of the Airshed cycle
// for a shape and node count. The hourly D_Trans->D_Repl gather is priced
// as transToChem then chemToRepl (see ChargeHourlyGather).
type RedistPlans struct {
	replToTrans *dist.Plan
	transToChem *dist.Plan
	chemToRepl  *dist.Plan
}

// NewRedistPlans builds the plan cache for a shape on p nodes.
func NewRedistPlans(sh dist.Shape, p, wordSize int) (*RedistPlans, error) {
	var rp RedistPlans
	var err error
	if rp.replToTrans, err = dist.NewPlan(sh, dist.DRepl, dist.DTrans, p, wordSize); err != nil {
		return nil, err
	}
	if rp.transToChem, err = dist.NewPlan(sh, dist.DTrans, dist.DChem, p, wordSize); err != nil {
		return nil, err
	}
	if rp.chemToRepl, err = dist.NewPlan(sh, dist.DChem, dist.DRepl, p, wordSize); err != nil {
		return nil, err
	}
	return &rp, nil
}

// chargeRedist prices one redistribution on a node group (identity group
// for data-parallel replays) and books it under its kind.
func chargeRedist(m *vm.Machine, nodes []int, plan *dist.Plan, kind string, res *ReplayResult) {
	prof := m.Profile()
	before := m.GroupElapsed(nodes)
	for i, n := range nodes {
		m.ChargeSeconds(n, vm.CatComm, plan.Traffic[i].Cost(prof))
	}
	after := m.BarrierGroup(nodes)
	res.CommSeconds[kind] += after - before
	res.RedistCounts[kind]++
}

// chargeTransport prices one transport call on a node group: each node
// executes its owned layers.
func chargeTransport(m *vm.Machine, nodes []int, st *StepTrace) {
	p := len(nodes)
	for i, n := range nodes {
		iv := dist.BlockOwner(len(st.LayerFlops), p, i)
		var flops float64
		for l := iv.Lo; l < iv.Hi; l++ {
			flops += st.LayerFlops[l]
		}
		m.ChargeCompute(n, vm.CatTransport, flops)
	}
	m.BarrierGroup(nodes)
}

// chargeChemistry prices one chemistry call on a node group: each node
// executes its owned cell columns.
func chargeChemistry(m *vm.Machine, nodes []int, st *StepTrace) {
	p := len(nodes)
	for i, n := range nodes {
		iv := dist.BlockOwner(len(st.CellFlops), p, i)
		var flops float64
		for c := iv.Lo; c < iv.Hi; c++ {
			flops += st.CellFlops[c]
		}
		m.ChargeCompute(n, vm.CatChemistry, flops)
	}
	m.BarrierGroup(nodes)
}

// chargeAerosol prices the replicated aerosol step.
func chargeAerosol(m *vm.Machine, nodes []int, st *StepTrace) {
	for _, n := range nodes {
		m.ChargeCompute(n, vm.CatAerosol, st.AeroFlops)
	}
	m.BarrierGroup(nodes)
}

// ChargeHourSteps prices the inner loop of one hour on a node group. The
// hour starts from the replicated I/O state and ends in D_Trans.
func ChargeHourSteps(m *vm.Machine, nodes []int, rp *RedistPlans, ht *HourTrace, res *ReplayResult) {
	cur := dist.DRepl
	for si := range ht.Steps {
		st := &ht.Steps[si]
		if cur != dist.DTrans {
			chargeRedist(m, nodes, rp.replToTrans, KindReplToTrans, res)
			cur = dist.DTrans
		}
		chargeTransport(m, nodes, st)
		chargeRedist(m, nodes, rp.transToChem, KindTransToChem, res)
		chargeChemistry(m, nodes, st)
		chargeRedist(m, nodes, rp.chemToRepl, KindChemToRepl, res)
		chargeAerosol(m, nodes, st)
		chargeRedist(m, nodes, rp.replToTrans, KindReplToTrans, res)
		cur = dist.DTrans
		chargeTransport(m, nodes, st)
	}
}

// ChargeHourlyGather prices the hour-boundary gather to the replicated
// I/O distribution, routed in two phases through D_Chem: a direct
// D_Trans -> D_Repl plan would make each of the few layer owners send its
// whole slab to every node (O(P) slab copies), while the two-phase route
// costs a cheap slab scatter plus the all-gather the step loop already
// performs. This is the classic two-phase redistribution optimisation;
// see DESIGN.md.
func ChargeHourlyGather(m *vm.Machine, nodes []int, rp *RedistPlans, res *ReplayResult) {
	chargeRedist(m, nodes, rp.transToChem, KindTransToRepl, res)
	chargeRedist(m, nodes, rp.chemToRepl, KindTransToRepl, res)
}

// replayData prices the pure data-parallel schedule of Sections 2-4:
// sequential I/O on node 0, then the step loop and the hourly gather on
// every node.
func replayData(tr *Trace, prof *machine.Profile, p int) (*ReplayResult, error) {
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	rp, err := NewRedistPlans(tr.Shape, p, prof.WordSize)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{
		CommSeconds:  make(map[string]float64),
		RedistCounts: make(map[string]int),
	}
	nodes := m.AllNodes()
	for hi := range tr.Hours {
		ht := &tr.Hours[hi]
		m.ChargeIO(0, ht.InBytes)
		m.ChargeCompute(0, vm.CatIO, ht.PretransFlops)
		m.Barrier()
		ChargeHourSteps(m, nodes, rp, ht, res)
		ChargeHourlyGather(m, nodes, rp, res)
		m.ChargeIO(0, ht.OutBytes)
		m.Barrier()
	}
	res.Ledger = m.Ledger()
	res.NodeUtilization, res.Efficiency = m.Utilization()
	return res, nil
}

// ReplayTaskCombined prices a 2-stage pipeline variant used by the
// pipeline-depth ablation: a single I/O task performs both the input and
// the output processing (instead of Section 5's separate input and output
// tasks), with p-1 compute nodes. Serialising input and output on one node
// re-couples the two I/O streams, which is exactly what the paper's
// 3-stage split avoids.
func ReplayTaskCombined(tr *Trace, prof *machine.Profile, p int) (*ReplayResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if p < 2 {
		return nil, fmt.Errorf("core: combined-I/O pipeline needs at least 2 nodes, got %d", p)
	}
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	ioNode := 0
	compute := make([]int, p-1)
	for i := range compute {
		compute[i] = i + 1
	}
	rp, err := NewRedistPlans(tr.Shape, p-1, prof.WordSize)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{
		CommSeconds:  make(map[string]float64),
		RedistCounts: make(map[string]int),
		StageBound:   make(map[string]float64),
	}
	concBytes := tr.Shape.Bytes(prof.WordSize)
	for hi := range tr.Hours {
		ht := &tr.Hours[hi]
		m.ChargeIO(ioNode, ht.InBytes)
		m.ChargeCompute(ioNode, vm.CatIO, ht.PretransFlops)
		inputDone := m.Clock(ioNode)
		m.AdvanceTo(compute, inputDone)
		ChargeHourSteps(m, compute, rp, ht, res)
		ChargeHourlyGather(m, compute, rp, res)
		computeDone := m.GroupElapsed(compute)
		// The same node must now write the hour's output before it
		// can read the next hour's input.
		m.AdvanceTo([]int{ioNode}, computeDone)
		m.ChargeCommAs(ioNode, vm.CatComm, 1, concBytes, 0)
		m.ChargeIO(ioNode, ht.OutBytes)
	}
	res.StageBound["io"] = m.Clock(ioNode)
	res.StageBound["compute"] = m.GroupElapsed(compute)
	res.Ledger = m.Ledger()
	return res, nil
}

// replayTask prices the pipelined task-parallel schedule of Section 5: an
// input task (1 node), the main computation (p-2 nodes) and an output
// task (1 node), software-pipelined across hours as in the paper's
// Figure 8: while hour i computes, hour i+1's inputs are read and hour
// i-1's outputs are written.
func replayTask(tr *Trace, prof *machine.Profile, p int) (*ReplayResult, error) {
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	pc := p - 2 // compute group size
	inputNode := 0
	outputNode := 1
	compute := make([]int, pc)
	for i := range compute {
		compute[i] = i + 2
	}
	rp, err := NewRedistPlans(tr.Shape, pc, prof.WordSize)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{
		CommSeconds:  make(map[string]float64),
		RedistCounts: make(map[string]int),
		StageBound:   make(map[string]float64),
	}
	concBytes := tr.Shape.Bytes(prof.WordSize)

	for hi := range tr.Hours {
		ht := &tr.Hours[hi]
		// Input stage: hour hi's inputhour + pretrans on the input
		// node (it read ahead while earlier hours computed).
		inputStart := m.Clock(inputNode)
		m.ChargeIO(inputNode, ht.InBytes)
		m.ChargeCompute(inputNode, vm.CatIO, ht.PretransFlops)
		inputDone := m.Clock(inputNode)
		res.Timeline = append(res.Timeline, StageInterval{"input", hi, inputStart, inputDone})

		// Compute stage waits for its input.
		m.AdvanceTo(compute, inputDone)
		computeStart := m.GroupElapsed(compute)
		ChargeHourSteps(m, compute, rp, ht, res)
		// Hand the hour's state to the output task: gather to
		// replicated inside the group, then one transfer to the
		// output node.
		ChargeHourlyGather(m, compute, rp, res)
		computeDone := m.GroupElapsed(compute)
		res.Timeline = append(res.Timeline, StageInterval{"compute", hi, computeStart, computeDone})

		// Output stage waits for the computed hour.
		m.AdvanceTo([]int{outputNode}, computeDone)
		outputStart := m.Clock(outputNode)
		m.ChargeCommAs(outputNode, vm.CatComm, 1, concBytes, 0)
		m.ChargeIO(outputNode, ht.OutBytes)
		res.Timeline = append(res.Timeline, StageInterval{"output", hi, outputStart, m.Clock(outputNode)})
	}
	res.StageBound["input"] = m.Clock(inputNode)
	res.StageBound["compute"] = m.GroupElapsed(compute)
	res.StageBound["output"] = m.Clock(outputNode)
	res.Ledger = m.Ledger()
	res.NodeUtilization, res.Efficiency = m.Utilization()
	return res, nil
}
