package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"airshed/internal/dist"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// randomTrace returns a valid trace of random shape, hour and step counts
// and work. Amounts span several decades and include exact zeros, so a
// pricer that sums or charges in another order than the paper's
// accounting rounds differently somewhere.
func randomTrace(r *rand.Rand) *Trace {
	sh := dist.Shape{Species: 1 + r.IntN(40), Layers: 1 + r.IntN(12), Cells: 1 + r.IntN(300)}
	work := func() float64 {
		if r.IntN(10) == 0 {
			return 0
		}
		return r.Float64() * math.Pow(10, float64(r.IntN(9)))
	}
	tr := &Trace{Dataset: "random", Shape: sh, Hours: make([]HourTrace, 1+r.IntN(4))}
	for hi := range tr.Hours {
		h := &tr.Hours[hi]
		h.InBytes, h.OutBytes = r.Int64N(1<<(10+r.IntN(20))), r.Int64N(1<<(10+r.IntN(20)))
		h.PretransFlops = work()
		h.Steps = make([]StepTrace, 1+r.IntN(5))
		for si := range h.Steps {
			st := &h.Steps[si]
			st.LayerFlops = make([]float64, sh.Layers)
			st.CellFlops = make([]float64, sh.Cells)
			for l := range st.LayerFlops {
				st.LayerFlops[l] = work()
			}
			for c := range st.CellFlops {
				st.CellFlops[c] = work()
			}
			st.AeroFlops = work()
		}
	}
	return tr
}

// randomProfile returns a valid machine profile: a positive flop time and
// word size, and costs that are non-negative, sometimes exactly zero.
func randomProfile(r *rand.Rand) *machine.Profile {
	cost := func(scale float64) float64 {
		if r.IntN(6) == 0 {
			return 0
		}
		return r.Float64() * scale
	}
	return &machine.Profile{
		Name:       "random",
		FlopTime:   (0.01 + r.Float64()) * 1e-7,
		LatencySec: cost(1e-4),
		ByteSec:    cost(1e-7),
		CopySec:    cost(1e-7),
		WordSize:   1 + r.IntN(16),
		IOByteSec:  cost(1e-5),
		IOFixedSec: cost(0.2),
	}
}

// refRedist prices one redistribution on a node group straight from its
// plan, the plan's traffic priced again on every use, and books it under
// its kind.
func refRedist(m *vm.Machine, nodes []int, plan *dist.Plan, kind string, res *ReplayResult) {
	before := m.GroupElapsed(nodes)
	for i, n := range nodes {
		m.ChargeSeconds(n, vm.CatComm, plan.Traffic[i].Cost(m.Profile()))
	}
	after := m.BarrierGroup(nodes)
	res.CommSeconds[kind] += after - before
	res.RedistCounts[kind]++
}

// refOwned prices one compute phase on a node group: each node executes
// the records it owns under BLOCK, summed in record order.
func refOwned(m *vm.Machine, nodes []int, cat vm.Category, records []float64) {
	for i, n := range nodes {
		iv := dist.BlockOwner(len(records), len(nodes), i)
		var flops float64
		for _, f := range records[iv.Lo:iv.Hi] {
			flops += f
		}
		m.ChargeSeconds(n, cat, m.Profile().ComputeTime(flops))
	}
	m.BarrierGroup(nodes)
}

// refHour prices one hour's step loop and the hourly two-phase gather on
// a node group, from the replicated I/O state back to it.
func refHour(m *vm.Machine, nodes []int, tr *Trace, hi int, res *ReplayResult) error {
	plan := func(from, to dist.Dist) (*dist.Plan, error) {
		return dist.NewPlan(tr.Shape, from, to, len(nodes), m.Profile().WordSize)
	}
	replToTrans, err := plan(dist.DRepl, dist.DTrans)
	if err != nil {
		return err
	}
	transToChem, err := plan(dist.DTrans, dist.DChem)
	if err != nil {
		return err
	}
	chemToRepl, err := plan(dist.DChem, dist.DRepl)
	if err != nil {
		return err
	}
	refRedist(m, nodes, replToTrans, KindReplToTrans, res)
	for si := range tr.Hours[hi].Steps {
		st := &tr.Hours[hi].Steps[si]
		refOwned(m, nodes, vm.CatTransport, st.LayerFlops)
		refRedist(m, nodes, transToChem, KindTransToChem, res)
		refOwned(m, nodes, vm.CatChemistry, st.CellFlops)
		refRedist(m, nodes, chemToRepl, KindChemToRepl, res)
		for _, n := range nodes {
			m.ChargeSeconds(n, vm.CatAerosol, m.Profile().ComputeTime(st.AeroFlops))
		}
		m.BarrierGroup(nodes)
		refRedist(m, nodes, replToTrans, KindReplToTrans, res)
		refOwned(m, nodes, vm.CatTransport, st.LayerFlops)
	}
	refRedist(m, nodes, transToChem, KindTransToRepl, res)
	refRedist(m, nodes, chemToRepl, KindTransToRepl, res)
	return nil
}

// newRefResult returns an empty result with every kind tallied at zero.
func newRefResult() *ReplayResult {
	res := &ReplayResult{CommSeconds: map[string]float64{}, RedistCounts: map[string]int{}}
	for _, k := range RedistKinds() {
		res.CommSeconds[k] = 0
		res.RedistCounts[k] = 0
	}
	return res
}

// refNodes returns the node list [lo, lo+n).
func refNodes(lo, n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = lo + i
	}
	return nodes
}

// Schedules the reference pricer writes out.
const (
	refData     = "data-parallel"
	refTask     = "task-parallel"
	refCombined = "combined-I/O"
)

// refReplay prices tr on p nodes the way the paper's accounting reads,
// written out schedule by schedule with nothing shared between replays:
// the data-parallel run, the Section 5 pipeline, or the pipeline whose
// one I/O node both reads and writes.
func refReplay(tr *Trace, prof *machine.Profile, p int, schedule string) (*ReplayResult, error) {
	m, err := vm.New(prof, p)
	if err != nil {
		return nil, err
	}
	res := newRefResult()
	concBytes := tr.Shape.Bytes(prof.WordSize)
	switch schedule {
	case refData:
		all := refNodes(0, p)
		for hi := range tr.Hours {
			ht := &tr.Hours[hi]
			m.ChargeIO(0, ht.InBytes)
			m.ChargeCompute(0, vm.CatIO, ht.PretransFlops)
			m.Barrier()
			if err := refHour(m, all, tr, hi, res); err != nil {
				return nil, err
			}
			m.ChargeIO(0, ht.OutBytes)
			m.Barrier()
		}
		res.NodeUtilization, res.Efficiency = m.Utilization()
	case refCombined:
		compute := refNodes(1, p-1)
		for hi := range tr.Hours {
			ht := &tr.Hours[hi]
			m.ChargeIO(0, ht.InBytes)
			m.ChargeCompute(0, vm.CatIO, ht.PretransFlops)
			m.AdvanceTo(compute, m.Clock(0))
			if err := refHour(m, compute, tr, hi, res); err != nil {
				return nil, err
			}
			m.AdvanceTo([]int{0}, m.GroupElapsed(compute))
			m.ChargeCommAs(0, vm.CatComm, 1, concBytes, 0)
			m.ChargeIO(0, ht.OutBytes)
		}
		res.StageBound = map[string]float64{"io": m.Clock(0), "compute": m.GroupElapsed(compute)}
	case refTask:
		const input, output = 0, 1
		compute := refNodes(2, p-2)
		for hi := range tr.Hours {
			ht := &tr.Hours[hi]
			start := m.Clock(input)
			m.ChargeIO(input, ht.InBytes)
			m.ChargeCompute(input, vm.CatIO, ht.PretransFlops)
			inputDone := m.Clock(input)
			res.Timeline = append(res.Timeline, StageInterval{"input", hi, start, inputDone})

			m.AdvanceTo(compute, inputDone)
			start = m.GroupElapsed(compute)
			if err := refHour(m, compute, tr, hi, res); err != nil {
				return nil, err
			}
			computeDone := m.GroupElapsed(compute)
			res.Timeline = append(res.Timeline, StageInterval{"compute", hi, start, computeDone})

			m.AdvanceTo([]int{output}, computeDone)
			start = m.Clock(output)
			m.ChargeCommAs(output, vm.CatComm, 1, concBytes, 0)
			m.ChargeIO(output, ht.OutBytes)
			res.Timeline = append(res.Timeline, StageInterval{"output", hi, start, m.Clock(output)})
		}
		res.StageBound = map[string]float64{
			"input":   m.Clock(input),
			"compute": m.GroupElapsed(compute),
			"output":  m.Clock(output),
		}
		res.NodeUtilization, res.Efficiency = m.Utilization()
	}
	res.Ledger = m.Ledger()
	return res, nil
}

// checkAgainstReference prices tr on prof with p nodes through a Pricer
// in every schedule p admits and requires each result to equal the
// reference pricer's, bit for bit.
func checkAgainstReference(t *testing.T, tr *Trace, prof *machine.Profile, p int) {
	t.Helper()
	pr, err := NewPricer(tr)
	if err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	for _, s := range []struct {
		name string
		minP int
	}{{refData, 1}, {refTask, 3}, {refCombined, 2}} {
		if p < s.minP {
			continue
		}
		var got *ReplayResult
		switch s.name {
		case refData:
			got, err = pr.Replay(prof, p, DataParallel)
		case refTask:
			got, err = pr.Replay(prof, p, TaskParallel)
		case refCombined:
			got, err = pr.ReplayTaskCombined(prof, p)
		}
		if err != nil {
			t.Fatalf("%s p=%d: %v", s.name, p, err)
		}
		want, err := refReplay(tr, prof, p, s.name)
		if err != nil {
			t.Fatalf("%s p=%d reference: %v", s.name, p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s p=%d %v: priced\n%s\nreference\n%s", s.name, p, tr.Shape, describeReplay(got), describeReplay(want))
		}
	}
}

// describeReplay prints every priced field of a replay with full float
// precision, for a failure message.
func describeReplay(res *ReplayResult) string {
	return fmt.Sprintf("ledger %v %.17g %v\ncomm %v counts %v\nutil %v eff %.17g\nbounds %v\ntimeline %v",
		res.Ledger.Nodes, res.Ledger.Total, res.Ledger.ByCat, res.CommSeconds, res.RedistCounts,
		res.NodeUtilization, res.Efficiency, res.StageBound, res.Timeline)
}

// oracleCase derives a trace, a profile and a node count in 1..140 from
// one seed.
func oracleCase(seed uint64) (*Trace, *machine.Profile, int) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	return randomTrace(r), randomProfile(r), 1 + r.IntN(140)
}

// Every replay the Pricer prices equals the reference pricer's on
// generated traces, profiles and node counts.
func TestReplayMatchesReference(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		tr, prof, p := oracleCase(uint64(seed))
		checkAgainstReference(t, tr, prof, p)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// FuzzReplayOracle is TestReplayMatchesReference over fuzzer-chosen seeds
// and node counts.
func FuzzReplayOracle(f *testing.F) {
	for _, s := range []struct {
		seed uint64
		p    uint8
	}{{0, 1}, {1, 2}, {2, 3}, {3, 64}, {4, 139}} {
		f.Add(s.seed, s.p)
	}
	f.Fuzz(func(t *testing.T, seed uint64, p uint8) {
		tr, prof, _ := oracleCase(seed)
		checkAgainstReference(t, tr, prof, 1+int(p)%140)
	})
}
