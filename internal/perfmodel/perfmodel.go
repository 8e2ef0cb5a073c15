// Package perfmodel implements the paper's Section 4 analytic performance
// model:
//
//   - computation phases: time = sequential time / useful parallelism,
//     with the ceil correction for uneven block partitions ("the node with
//     the largest amount of data should be considered");
//   - communication phases: Ct = L*m + G*b + H*c evaluated on the paper's
//     closed forms for the three redistribution steps of the main loop;
//   - parameter estimation: fitting L, G and H from measurements taken at
//     small node counts, the procedure the paper uses to obtain
//     L = 5.2e-5 s/msg, G = 2.47e-8 s/B, H = 2.04e-8 s/B on the T3E.
//
// The model consumes a recorded work trace (package core) for the
// sequential work totals, so "predicted" numbers use only aggregate
// information — exactly what the paper argues a parallelising compiler
// could derive — while "measured" numbers come from the full per-node
// replay.
package perfmodel

import (
	"fmt"
	"math"

	"airshed/internal/core"
	"airshed/internal/dist"
	"airshed/internal/machine"
)

// ceilShare returns ceil(n/min(n,p))/n: the largest fraction of an
// n-extent axis owned by one node under BLOCK on p nodes.
func ceilShare(n, p int) float64 {
	return float64(dist.BlockSize(n, p)) / float64(n)
}

// PredictReplToTrans evaluates the paper's closed form for D_Repl ->
// D_Trans: Ct = H * ceil(layers/min(layers,P)) * species * nodes * W.
// (A local copy; no messages cross the network.)
func PredictReplToTrans(sh dist.Shape, prof *machine.Profile, p int) float64 {
	bytes := ceilShare(sh.Layers, p) * float64(sh.Layers) * float64(sh.Species*sh.Cells*prof.WordSize)
	return prof.CopySec * bytes
}

// PredictTransToChem evaluates Ct = L*P + G * ceil(layers/min(layers,P)) *
// species * nodes * W: the send-dominated scatter from the layer owners.
func PredictTransToChem(sh dist.Shape, prof *machine.Profile, p int) float64 {
	bytes := ceilShare(sh.Layers, p) * float64(sh.Layers) * float64(sh.Species*sh.Cells*prof.WordSize)
	return prof.LatencySec*float64(p) + prof.ByteSec*bytes
}

// PredictChemToRepl evaluates Ct = 2*L*P + G * layers * species * nodes *
// W: the receive-dominated all-gather.
func PredictChemToRepl(sh dist.Shape, prof *machine.Profile, p int) float64 {
	bytes := float64(sh.Layers * sh.Species * sh.Cells * prof.WordSize)
	return 2*prof.LatencySec*float64(p) + prof.ByteSec*bytes
}

// PredictComputation evaluates the paper's computation model with the ceil
// correction: time = seq * ceil(n/min(n,p)) / n, where n is the available
// parallelism of the phase.
func PredictComputation(seqSeconds float64, parallelism, p int) float64 {
	if parallelism <= 1 {
		return seqSeconds
	}
	return seqSeconds * ceilShare(parallelism, p)
}

// Prediction is the analytic model's estimate of a full run.
type Prediction struct {
	Machine string
	Nodes   int

	// Per-phase times, seconds.
	Chemistry float64
	Transport float64
	IO        float64
	Aerosol   float64
	// CommByKind maps redistribution kinds to predicted totals over the
	// run, using the paper's closed forms and the trace's occurrence
	// counts.
	CommByKind map[string]float64
	// Comm is the summed communication time.
	Comm float64
	// Total is the predicted execution time.
	Total float64
}

// Predict runs the full analytic model for a trace on a machine at p
// nodes. Only aggregate trace quantities (sequential work sums, step and
// hour counts, array shape) are used — no per-node accounting. It is
// core.NewPricer followed by PredictWith; to predict one trace many
// times, keep the Pricer.
func Predict(tr *core.Trace, prof *machine.Profile, p int) (*Prediction, error) {
	pricer, err := core.NewPricer(tr)
	if err != nil {
		return nil, err
	}
	return PredictWith(pricer, prof, p)
}

// PredictWith is Predict over a kept Pricer, whose trace is validated
// and whose work sums are formed once for every prediction.
func PredictWith(pricer *core.Pricer, prof *machine.Profile, p int) (*Prediction, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("perfmodel: node count must be positive, got %d", p)
	}
	tr := pricer.Trace()
	sh := tr.Shape
	steps := tr.TotalSteps()
	hours := len(tr.Hours)

	pr := &Prediction{
		Machine:    prof.Name,
		Nodes:      p,
		CommByKind: make(map[string]float64),
	}

	// Computation phases: sequential time / useful parallelism.
	sums := pricer.Sums()
	chemSeq := prof.ComputeTime(sums.Chem)
	transSeq := prof.ComputeTime(sums.Transport)
	pr.Chemistry = PredictComputation(chemSeq, sh.Cells, p)
	pr.Transport = PredictComputation(transSeq, sh.Layers, p)
	pr.Aerosol = prof.ComputeTime(sums.Aero) // replicated: constant

	// I/O processing: sequential, constant in P.
	for hi := range tr.Hours {
		h := &tr.Hours[hi]
		pr.IO += prof.IOTime(h.InBytes) + prof.IOTime(h.OutBytes) + prof.ComputeTime(h.PretransFlops)
	}

	// Communication: closed forms times occurrence counts. The main loop
	// performs D_Repl->D_Trans once per step plus once per hour (the
	// first step of each hour starts from the replicated I/O state);
	// D_Trans->D_Chem and D_Chem->D_Repl once per step each, plus once
	// per hour each for the two-phase hourly gather.
	rt := PredictReplToTrans(sh, prof, p)
	tc := PredictTransToChem(sh, prof, p)
	cr := PredictChemToRepl(sh, prof, p)
	pr.CommByKind[core.KindReplToTrans] = float64(steps+hours) * rt
	pr.CommByKind[core.KindTransToChem] = float64(steps) * tc
	pr.CommByKind[core.KindChemToRepl] = float64(steps) * cr
	pr.CommByKind[core.KindTransToRepl] = float64(hours) * (tc + cr)
	for _, k := range core.RedistKinds() { // fixed order: a float sum over map order is not reproducible
		pr.Comm += pr.CommByKind[k]
	}

	pr.Total = pr.Chemistry + pr.Transport + pr.Aerosol + pr.IO + pr.Comm
	return pr, nil
}

// CommSample is one measured communication phase: the per-node maxima of
// messages, bytes and locally copied bytes, with the observed phase time.
type CommSample struct {
	Msgs    int
	Bytes   int64
	Copied  int64
	Seconds float64
}

// FitLGH estimates the machine parameters L, G, H from measured
// communication samples by linear least squares on
// t = L*m + G*b + H*c (the paper's estimation procedure: run the
// application on small node counts, record per-phase communication times,
// fit). At least three linearly independent samples are required.
func FitLGH(samples []CommSample) (l, g, h float64, err error) {
	if len(samples) < 3 {
		return 0, 0, 0, fmt.Errorf("perfmodel: need at least 3 samples, got %d", len(samples))
	}
	// Normal equations A^T A x = A^T y for A rows [m, b, c].
	var ata [3][3]float64
	var aty [3]float64
	for _, s := range samples {
		row := [3]float64{float64(s.Msgs), float64(s.Bytes), float64(s.Copied)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				ata[i][j] += row[i] * row[j]
			}
			aty[i] += row[i] * s.Seconds
		}
	}
	x, err := solve3(ata, aty)
	if err != nil {
		return 0, 0, 0, err
	}
	return x[0], x[1], x[2], nil
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	var x [3]float64
	// Augment.
	m := [3][4]float64{}
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return x, fmt.Errorf("perfmodel: singular system (samples not independent)")
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	for i := 0; i < 3; i++ {
		x[i] = m[i][3] / m[i][i]
	}
	return x, nil
}

// SamplesFromPlans generates fitting samples from the redistribution
// plans of the Airshed main loop at the given (small) node counts,
// measuring each plan's most-loaded node — the paper's procedure of
// measuring the communication phases on small configurations. timeOf maps
// a plan's worst-case traffic to an observed time (in the library's tests
// this is the plan cost itself; on a real machine it would be a clock).
func SamplesFromPlans(sh dist.Shape, prof *machine.Profile, nodeCounts []int,
	timeOf func(t dist.NodeTraffic) float64) ([]CommSample, error) {
	var samples []CommSample
	pairs := [][2]dist.Dist{
		{dist.DRepl, dist.DTrans},
		{dist.DTrans, dist.DChem},
		{dist.DChem, dist.DRepl},
	}
	for _, p := range nodeCounts {
		for _, pair := range pairs {
			plan, err := dist.NewPlan(sh, pair[0], pair[1], p, prof.WordSize)
			if err != nil {
				return nil, err
			}
			// Most-loaded node by cost.
			best := plan.Traffic[0]
			bestCost := best.Cost(prof)
			for _, t := range plan.Traffic[1:] {
				if c := t.Cost(prof); c > bestCost {
					best, bestCost = t, c
				}
			}
			b := best.BytesSent
			if best.BytesRecv > b {
				b = best.BytesRecv
			}
			samples = append(samples, CommSample{
				Msgs:    best.MsgsSent + best.MsgsRecv,
				Bytes:   b,
				Copied:  best.BytesCopied,
				Seconds: timeOf(best),
			})
		}
	}
	return samples, nil
}
