package fx

import (
	"fmt"
	"math"
	"sort"

	"airshed/internal/dist"
)

// This file implements the processor-allocation machinery the paper
// credits to the Fx project's task-parallelism work (Subhlok & Vondran,
// "Optimal mapping of sequences of data parallel tasks" and "Optimal
// latency-throughput tradeoffs for data parallel pipelines", the paper's
// references [26, 27]): given a pipeline of data-parallel stages with
// known cost functions, divide P nodes among the stages.
//
// The Airshed drivers use it to size the input / compute / output (/
// PopExp) subgroups of the Section 5 and Section 6 pipelines instead of
// fixed heuristics; the paper notes exactly this: "With the knowledge of
// computation and communication characteristics of a foreign module, the
// techniques used in Fx to manage processor allocation among tasks can be
// extended to foreign modules."

// TaskCost reports a stage's per-item processing time on p nodes. Cost
// functions must be non-increasing in p (more nodes never slow a stage);
// OptimalPipelineMapping validates this on the points it probes.
type TaskCost func(p int) float64

// Mapping is a processor allocation for a pipeline.
type Mapping struct {
	// Nodes[i] is the node count of stage i.
	Nodes []int
	// Bottleneck is the resulting pipeline period: the maximum stage
	// time, which bounds steady-state throughput.
	Bottleneck float64
	// Latency is the sum of stage times: the time one item needs to
	// traverse the pipeline.
	Latency float64
}

// OptimalPipelineMapping divides total nodes among the pipeline stages to
// minimise the bottleneck stage time (throughput-optimal mapping). Every
// stage receives at least one node. Among allocations achieving the
// optimal bottleneck it returns one using the fewest nodes per stage
// (which also minimises latency among minimal allocations); leftover
// nodes are assigned to the bottleneck stage.
//
// The algorithm is the classic parametric search: candidate bottleneck
// values are exactly the stage costs at feasible node counts; for a
// candidate T, the minimal allocation gives each stage the smallest p
// with cost(p) <= T; the smallest feasible T wins. Complexity
// O(k * P * log(k * P)) for k stages.
func OptimalPipelineMapping(total int, costs []TaskCost) (*Mapping, error) {
	k := len(costs)
	if k == 0 {
		return nil, fmt.Errorf("fx: no pipeline stages")
	}
	if total < k {
		return nil, fmt.Errorf("fx: %d nodes cannot host %d pipeline stages", total, k)
	}
	// Tabulate stage costs for p = 1..total-k+1 (a stage can never get
	// more than that) and validate monotonicity.
	maxP := total - k + 1
	table := make([][]float64, k)
	var candidates []float64
	for i, c := range costs {
		table[i] = make([]float64, maxP+1)
		prev := math.Inf(1)
		for p := 1; p <= maxP; p++ {
			v := c(p)
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("fx: stage %d cost at p=%d is %g", i, p, v)
			}
			if v > prev*(1+1e-12) {
				return nil, fmt.Errorf("fx: stage %d cost increases from %g to %g at p=%d (must be non-increasing)",
					i, prev, v, p)
			}
			table[i][p] = v
			prev = v
			candidates = append(candidates, v)
		}
	}
	sort.Float64s(candidates)
	candidates = dedupFloats(candidates)

	// minNodesFor returns the minimal total allocation achieving
	// bottleneck <= T, or nil if infeasible.
	minNodesFor := func(T float64) []int {
		alloc := make([]int, k)
		used := 0
		for i := 0; i < k; i++ {
			p := 1
			for p <= maxP && table[i][p] > T {
				p++
			}
			if p > maxP {
				return nil
			}
			alloc[i] = p
			used += p
			if used > total {
				return nil
			}
		}
		return alloc
	}

	// Binary search the smallest feasible candidate.
	lo, hi := 0, len(candidates)-1
	if minNodesFor(candidates[hi]) == nil {
		return nil, fmt.Errorf("fx: no feasible mapping of %d stages onto %d nodes", k, total)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if minNodesFor(candidates[mid]) != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	alloc := minNodesFor(candidates[lo])

	// Hand leftover nodes to the current bottleneck stage while it
	// improves anything.
	used := 0
	for _, p := range alloc {
		used += p
	}
	for used < total {
		worst, worstCost := -1, -1.0
		for i, p := range alloc {
			if p < maxP && table[i][p] > worstCost {
				worst, worstCost = i, table[i][p]
			}
		}
		if worst < 0 || table[worst][alloc[worst]+1] >= worstCost {
			break // no stage improves with one more node
		}
		alloc[worst]++
		used++
	}

	m := &Mapping{Nodes: alloc}
	for i, p := range alloc {
		t := table[i][p]
		if t > m.Bottleneck {
			m.Bottleneck = t
		}
		m.Latency += t
	}
	return m, nil
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// DataParallelCost builds the paper's Section 4.1 cost function for a
// data-parallel stage: seq / min(parallelism, p) with the ceil correction
// for block partitions, plus a fixed per-item overhead (communication,
// startup) that does not shrink with p.
func DataParallelCost(seq float64, parallelism int, fixed float64) TaskCost {
	return func(p int) float64 {
		if parallelism <= 1 {
			return seq + fixed
		}
		return seq*float64(dist.BlockSize(parallelism, p))/float64(parallelism) + fixed
	}
}

// SequentialCost builds the cost function of an inherently sequential
// stage (e.g. the I/O processing tasks): constant in p.
func SequentialCost(t float64) TaskCost {
	return func(int) float64 { return t }
}
