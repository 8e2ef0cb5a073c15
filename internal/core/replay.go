package core

import (
	"fmt"
	"sync"

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
// sweep node counts and machines (Figures 2-7, 9). It is NewPricer
// followed by one Pricer.Replay; to price one trace many times, keep the
// Pricer.
func Replay(tr *Trace, prof *machine.Profile, p int, mode Mode) (*ReplayResult, error) {
	pr, err := NewPricer(tr)
	if err != nil {
		return nil, err
	}
	return pr.Replay(prof, p, mode)
}

// Pricer prices one validated trace on many (machine, node count, mode)
// combinations. It follows the split of the paper's Section 4 model: the
// work each node of a group does in each phase depends only on the trace
// and the group's size, so it is derived once per group size and kept;
// the machine parameters enter only when a replay charges that work. The
// trace must not change after NewPricer. A Pricer is safe for concurrent
// use.
type Pricer struct {
	tr *Trace
	// firstStep[h] is the run-wide index of hour h's first step.
	firstStep []int

	mu     sync.Mutex
	groups map[int]*groupWork

	sumsOnce sync.Once
	sums     WorkSums
}

// WorkSums are a trace's sequential work totals, the aggregates the
// Section 4 analytic model reads: Trace.SumChemFlops,
// Trace.SumTransportFlops and Trace.SumAeroFlops.
type WorkSums struct {
	Chem, Transport, Aero float64
}

// groupWork is a trace's parallel work split over a g-node group under
// the BLOCK ownership of dist.BlockOwner. The nodes that own layers are
// the first layerOwners of the group and those that own cells the first
// cellOwners; the rest do no work in that phase, so only the owners' sums
// are kept and the split is never larger than the trace.
// transport[k*layerOwners+i] is node i's flops in one transport call of
// the run's k-th step, and chemistry[k*cellOwners+i] its flops in that
// step's chemistry call.
type groupWork struct {
	layerOwners, cellOwners int
	transport, chemistry    []float64
}

// NewPricer validates tr once for every replay the Pricer prices.
func NewPricer(tr *Trace) (*Pricer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	pr := &Pricer{tr: tr, firstStep: make([]int, len(tr.Hours)), groups: make(map[int]*groupWork)}
	steps := 0
	for hi := range tr.Hours {
		pr.firstStep[hi] = steps
		steps += len(tr.Hours[hi].Steps)
	}
	return pr, nil
}

// Trace returns the priced trace.
func (pr *Pricer) Trace() *Trace { return pr.tr }

// Sums returns the trace's work totals, summed on first use.
func (pr *Pricer) Sums() WorkSums {
	pr.sumsOnce.Do(func() {
		pr.sums = WorkSums{
			Chem:      pr.tr.SumChemFlops(),
			Transport: pr.tr.SumTransportFlops(),
			Aero:      pr.tr.SumAeroFlops(),
		}
	})
	return pr.sums
}

// group returns the work split over a g-node group, deriving it on first
// use. Each node's sums run in the owned records' order, as a per-step
// charge would form them.
func (pr *Pricer) group(g int) *groupWork {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if w, ok := pr.groups[g]; ok {
		return w
	}
	sh := pr.tr.Shape
	w := &groupWork{
		layerOwners: dist.BlockOwnerOf(sh.Layers, g, sh.Layers-1) + 1,
		cellOwners:  dist.BlockOwnerOf(sh.Cells, g, sh.Cells-1) + 1,
	}
	steps := pr.tr.TotalSteps()
	w.transport = make([]float64, 0, steps*w.layerOwners)
	w.chemistry = make([]float64, 0, steps*w.cellOwners)
	for hi := range pr.tr.Hours {
		for si := range pr.tr.Hours[hi].Steps {
			st := &pr.tr.Hours[hi].Steps[si]
			w.transport = appendBlockSums(w.transport, st.LayerFlops, g, w.layerOwners)
			w.chemistry = appendBlockSums(w.chemistry, st.CellFlops, g, w.cellOwners)
		}
	}
	pr.groups[g] = w
	return w
}

// appendBlockSums appends, for each of the first owners nodes of a
// g-node group, the total of the records it owns under BLOCK.
func appendBlockSums(dst, records []float64, g, owners int) []float64 {
	for i := 0; i < owners; i++ {
		iv := dist.BlockOwner(len(records), g, i)
		var flops float64
		for _, f := range records[iv.Lo:iv.Hi] {
			flops += f
		}
		dst = append(dst, flops)
	}
	return dst
}

// Replay prices the trace on prof with p nodes in the given mode.
func (pr *Pricer) Replay(prof *machine.Profile, p int, mode Mode) (*ReplayResult, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("core: node count must be positive, got %d", p)
	}
	switch mode {
	case DataParallel:
		return pr.replayData(prof, p)
	case TaskParallel:
		if p < 3 {
			return nil, fmt.Errorf("core: task-parallel replay needs at least 3 nodes, got %d", p)
		}
		return pr.replayTask(prof, p)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", mode)
	}
}

// Indices of the redistribution kinds in redistPlans' tallies, in
// RedistKinds order.
const (
	kReplToTrans = iota
	kTransToChem
	kChemToRepl
	kTransToRepl
	numKinds
)

// redistPlans prices a g-node group's share of one replay: it holds the
// group's work split and the per-node seconds of the three
// redistributions of the Airshed cycle, priced once on the replay's
// profile, and tallies the communication it charges by kind. The hourly
// D_Trans->D_Repl gather is priced as transToChem then chemToRepl (see
// chargeHour).
type redistPlans struct {
	pr   *Pricer
	prof *machine.Profile
	work *groupWork
	// Per-node seconds of each redistribution.
	replToTrans, transToChem, chemToRepl []float64
	// Per-node seconds of the current step's compute phases. Entries
	// past a phase's owners hold ComputeTime(0) for the whole replay.
	transport, chemistry, aerosol []float64
	comm                          [numKinds]float64
	counts                        [numKinds]int
}

// newRedistPlans prices the redistributions of pr's trace on a g-node
// group of prof.
func newRedistPlans(pr *Pricer, g int, prof *machine.Profile) (*redistPlans, error) {
	rp := &redistPlans{pr: pr, prof: prof}
	var err error
	if rp.replToTrans, err = planSeconds(pr.tr.Shape, dist.DRepl, dist.DTrans, g, prof); err != nil {
		return nil, err
	}
	if rp.transToChem, err = planSeconds(pr.tr.Shape, dist.DTrans, dist.DChem, g, prof); err != nil {
		return nil, err
	}
	if rp.chemToRepl, err = planSeconds(pr.tr.Shape, dist.DChem, dist.DRepl, g, prof); err != nil {
		return nil, err
	}
	rp.work = pr.group(g)
	idle := prof.ComputeTime(0)
	rp.transport, rp.chemistry, rp.aerosol = make([]float64, g), make([]float64, g), make([]float64, g)
	for i := 0; i < g; i++ {
		rp.transport[i], rp.chemistry[i] = idle, idle
	}
	return rp, nil
}

// planSeconds prices each node's traffic in the redistribution from one
// distribution to another on a g-node group.
func planSeconds(sh dist.Shape, from, to dist.Dist, g int, prof *machine.Profile) ([]float64, error) {
	plan, err := dist.NewPlan(sh, from, to, g, prof.WordSize)
	if err != nil {
		return nil, err
	}
	secs := make([]float64, g)
	for i := range secs {
		secs[i] = plan.Traffic[i].Cost(prof)
	}
	return secs, nil
}

// chargeRedist prices one redistribution on the group and tallies it
// under its kind.
func (rp *redistPlans) chargeRedist(m *vm.Machine, nodes []int, secs []float64, kind int) {
	before, after := m.ChargePhase(nodes, vm.CatComm, secs)
	rp.comm[kind] += after - before
	rp.counts[kind]++
}

// setSeconds sets the leading entries of secs to the compute time of
// each owner's flops.
func (rp *redistPlans) setSeconds(secs, flops []float64) {
	for i, f := range flops {
		secs[i] = rp.prof.ComputeTime(f)
	}
}

// chargeHour prices one hour of the trace on the group. The inner loop —
// transport over owned layers, chemistry over owned cell columns, the
// replicated aerosol step and the redistributions between them — starts
// from the replicated I/O state and ends in D_Trans. The hour-boundary
// gather back to the replicated I/O distribution is routed in two phases
// through D_Chem: a direct D_Trans -> D_Repl plan would make each of the
// few layer owners send its whole slab to every node (O(P) slab copies),
// while the two-phase route costs a cheap slab scatter plus the
// all-gather the step loop already performs. This is the classic
// two-phase redistribution optimisation; see DESIGN.md.
func (rp *redistPlans) chargeHour(m *vm.Machine, nodes []int, hour int) {
	lo, co := rp.work.layerOwners, rp.work.cellOwners
	rp.chargeRedist(m, nodes, rp.replToTrans, kReplToTrans)
	steps := rp.pr.tr.Hours[hour].Steps
	for si := range steps {
		k := rp.pr.firstStep[hour] + si
		rp.setSeconds(rp.transport, rp.work.transport[k*lo:(k+1)*lo])
		rp.setSeconds(rp.chemistry, rp.work.chemistry[k*co:(k+1)*co])
		aero := rp.prof.ComputeTime(steps[si].AeroFlops)
		for i := range rp.aerosol {
			rp.aerosol[i] = aero
		}
		m.ChargePhase(nodes, vm.CatTransport, rp.transport)
		rp.chargeRedist(m, nodes, rp.transToChem, kTransToChem)
		m.ChargePhase(nodes, vm.CatChemistry, rp.chemistry)
		rp.chargeRedist(m, nodes, rp.chemToRepl, kChemToRepl)
		m.ChargePhase(nodes, vm.CatAerosol, rp.aerosol)
		rp.chargeRedist(m, nodes, rp.replToTrans, kReplToTrans)
		m.ChargePhase(nodes, vm.CatTransport, rp.transport)
	}
	rp.chargeRedist(m, nodes, rp.transToChem, kTransToRepl)
	rp.chargeRedist(m, nodes, rp.chemToRepl, kTransToRepl)
}

// result returns the replay's ledger on m with rp's communication
// tallies. It snapshots both, so it runs after the last charge.
func (rp *redistPlans) result(m *vm.Machine) *ReplayResult {
	res := &ReplayResult{
		Ledger:       m.Ledger(),
		CommSeconds:  make(map[string]float64, numKinds),
		RedistCounts: make(map[string]int, numKinds),
	}
	for k, kind := range RedistKinds() {
		res.CommSeconds[kind] = rp.comm[k]
		res.RedistCounts[kind] = rp.counts[k]
	}
	return res
}

// Stage is one stage of a software pipeline over a run's hours: a node
// group that, for each hour, waits until an earlier stage has finished
// that hour and then charges the hour's work.
type Stage struct {
	// Name labels the stage's timeline intervals.
	Name string
	// Nodes is the stage's node group.
	Nodes []int
	// After is the index of the earlier stage whose end of the same
	// hour this stage waits for, or -1 if it waits for none.
	After int
	// Charge charges the stage's work for one hour.
	Charge func(hour int)
}

// RunPipeline prices hours hours of a software pipeline on m, the
// schedule of the paper's Figures 8 and 12: hour by hour, each stage in
// order moves its nodes' clocks up to its predecessor's end, charges the
// hour and records its busy interval. A stage whose nodes are ahead
// starts at once, so the input stage reads hour h+1 while later stages
// still work on hour h. The intervals are returned hour by hour, in
// stage order.
func RunPipeline(m *vm.Machine, hours int, stages []Stage) []StageInterval {
	timeline := make([]StageInterval, 0, hours*len(stages))
	ends := make([]float64, len(stages))
	for h := 0; h < hours; h++ {
		for i := range stages {
			s := &stages[i]
			if s.After >= 0 {
				m.AdvanceTo(s.Nodes, ends[s.After])
			}
			start := m.GroupElapsed(s.Nodes)
			s.Charge(h)
			ends[i] = m.GroupElapsed(s.Nodes)
			timeline = append(timeline, StageInterval{s.Name, h, start, ends[i]})
		}
	}
	return timeline
}

// TaskStages returns the three stages of the Section 5 pipeline on m for
// RunPipeline: hour h's inputhour and pretrans on the input node; its
// step loop and hourly gather on the compute group once the input is
// read; the transfer of the hour's state to the output node and its
// outputhour once the hour is computed. The input and output node may be
// one node.
func (pr *Pricer) TaskStages(m *vm.Machine, input int, compute []int, output int) ([]Stage, error) {
	stages, _, err := pr.taskStages(m, input, compute, output)
	return stages, err
}

// taskStages is TaskStages, also returning the compute group's plans and
// tallies.
func (pr *Pricer) taskStages(m *vm.Machine, input int, compute []int, output int) ([]Stage, *redistPlans, error) {
	prof := m.Profile()
	rp, err := newRedistPlans(pr, len(compute), prof)
	if err != nil {
		return nil, nil, err
	}
	concBytes := pr.tr.Shape.Bytes(prof.WordSize)
	return []Stage{
		{Name: "input", Nodes: []int{input}, After: -1, Charge: func(h int) {
			m.ChargeIO(input, pr.tr.Hours[h].InBytes)
			m.ChargeCompute(input, vm.CatIO, pr.tr.Hours[h].PretransFlops)
		}},
		{Name: "compute", Nodes: compute, After: 0, Charge: func(h int) {
			rp.chargeHour(m, compute, h)
		}},
		{Name: "output", Nodes: []int{output}, After: 1, Charge: func(h int) {
			m.ChargeCommAs(output, vm.CatComm, 1, concBytes, 0)
			m.ChargeIO(output, pr.tr.Hours[h].OutBytes)
		}},
	}, rp, nil
}

// replayData prices the pure data-parallel schedule of Sections 2-4:
// sequential I/O on node 0, then the step loop and the hourly gather on
// every node.
func (pr *Pricer) replayData(prof *machine.Profile, p int) (*ReplayResult, error) {
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	rp, err := newRedistPlans(pr, p, prof)
	if err != nil {
		return nil, err
	}
	nodes := m.AllNodes()
	for hi := range pr.tr.Hours {
		ht := &pr.tr.Hours[hi]
		m.ChargeIO(0, ht.InBytes)
		m.ChargeCompute(0, vm.CatIO, ht.PretransFlops)
		m.BarrierGroup(nodes)
		rp.chargeHour(m, nodes, hi)
		m.ChargeIO(0, ht.OutBytes)
		m.BarrierGroup(nodes)
	}
	res := rp.result(m)
	res.NodeUtilization, res.Efficiency = m.Utilization()
	return res, nil
}

// ReplayTaskCombined prices a 2-stage pipeline variant used by the
// pipeline-depth ablation: a single I/O task performs both the input and
// the output processing (instead of Section 5's separate input and output
// tasks), with p-1 compute nodes. Serialising input and output on one node
// re-couples the two I/O streams, which is exactly what the paper's
// 3-stage split avoids.
func (pr *Pricer) ReplayTaskCombined(prof *machine.Profile, p int) (*ReplayResult, error) {
	if p < 2 {
		return nil, fmt.Errorf("core: combined-I/O pipeline needs at least 2 nodes, got %d", p)
	}
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	const ioNode = 0
	compute := m.AllNodes()[1:]
	stages, rp, err := pr.taskStages(m, ioNode, compute, ioNode)
	if err != nil {
		return nil, err
	}
	RunPipeline(m, len(pr.tr.Hours), stages)
	res := rp.result(m)
	res.StageBound = map[string]float64{
		"io":      m.Clock(ioNode),
		"compute": m.GroupElapsed(compute),
	}
	return res, nil
}

// replayTask prices the pipelined task-parallel schedule of Section 5: an
// input task (1 node), the main computation (p-2 nodes) and an output
// task (1 node), software-pipelined across hours as in the paper's
// Figure 8: while hour i computes, hour i+1's inputs are read and hour
// i-1's outputs are written.
func (pr *Pricer) replayTask(prof *machine.Profile, p int) (*ReplayResult, error) {
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	const inputNode, outputNode = 0, 1
	compute := m.AllNodes()[2:]
	stages, rp, err := pr.taskStages(m, inputNode, compute, outputNode)
	if err != nil {
		return nil, err
	}
	timeline := RunPipeline(m, len(pr.tr.Hours), stages)
	res := rp.result(m)
	res.Timeline = timeline
	res.StageBound = map[string]float64{
		"input":   m.Clock(inputNode),
		"compute": m.GroupElapsed(compute),
		"output":  m.Clock(outputNode),
	}
	res.NodeUtilization, res.Efficiency = m.Utilization()
	return res, nil
}
