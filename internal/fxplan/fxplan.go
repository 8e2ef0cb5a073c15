// Package fxplan is the distribution-sequence planner: the slice of the
// Fx/HPF compiler that, given a program's phases and the distribution each
// phase requires, inserts the redistribution steps between them and picks
// the cheapest route for each — the analysis behind the paper's
// Section 2.2 ("This results in the following data re-distribution steps
// in the main loop: D_Repl -> D_Trans, D_Trans -> D_Chem, D_Chem ->
// D_Repl").
//
// Routes may be multi-hop: a redistribution can be cheaper through an
// intermediate distribution than direct (two-phase redistribution). The
// planner searches the complete graph over the candidate distributions
// with plan costs as edge weights, so it discovers, for example, that the
// hour-boundary D_Trans -> D_Repl gather should run through D_Chem at
// scale — the optimisation the Airshed driver applies (see DESIGN.md
// §5a).
package fxplan

import (
	"fmt"
	"math"

	"airshed/internal/dist"
	"airshed/internal/machine"
)

// Phase is one computation phase of a program with its required
// distribution.
type Phase struct {
	// Name labels the phase ("transport", "chemistry", ...).
	Name string
	// Dist is the distribution the phase's loops require.
	Dist dist.Dist
}

// Move is one planned redistribution.
type Move struct {
	// After names the phase the move follows; Before the phase it
	// feeds.
	After, Before string
	// Route is the distribution sequence, starting at the source and
	// ending at the destination ([src, dst] for a direct move,
	// [src, mid, dst] for two-phase, ...).
	Route []dist.Dist
	// Cost is the summed worst-node cost of the route's plans, seconds.
	Cost float64
}

// Plan is the planned redistribution schedule of a program.
type Plan struct {
	Moves []Move
	// CommCost is the total communication cost of one pass through the
	// program, seconds.
	CommCost float64
}

// Planner computes redistribution schedules for a fixed array shape,
// machine and node count.
type Planner struct {
	shape dist.Shape
	prof  *machine.Profile
	p     int
	// candidates are the distributions routes may pass through.
	candidates []dist.Dist
	// cost memoises direct plan costs.
	cost map[[2]dist.Dist]float64
}

// NewPlanner creates a planner. The candidate set defaults to the three
// Airshed distributions (replicated, block over layers, block over cells).
func NewPlanner(sh dist.Shape, prof *machine.Profile, p int) (*Planner, error) {
	if !sh.Valid() {
		return nil, fmt.Errorf("fxplan: invalid shape %v", sh)
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("fxplan: node count must be positive, got %d", p)
	}
	return &Planner{
		shape:      sh,
		prof:       prof,
		p:          p,
		candidates: []dist.Dist{dist.DRepl, dist.DTrans, dist.DChem},
		cost:       make(map[[2]dist.Dist]float64),
	}, nil
}

// DirectCost returns the worst-node cost of the direct redistribution
// src -> dst.
func (pl *Planner) DirectCost(src, dst dist.Dist) (float64, error) {
	if src == dst {
		return 0, nil
	}
	key := [2]dist.Dist{src, dst}
	if c, ok := pl.cost[key]; ok {
		return c, nil
	}
	plan, err := dist.NewPlan(pl.shape, src, dst, pl.p, pl.prof.WordSize)
	if err != nil {
		return 0, err
	}
	c := plan.MaxCost(pl.prof)
	pl.cost[key] = c
	return c, nil
}

// Route finds the cheapest redistribution route from src to dst through
// the candidate distributions (Dijkstra over the complete candidate
// graph; the graph is tiny, so a simple label-correcting sweep suffices).
func (pl *Planner) Route(src, dst dist.Dist) ([]dist.Dist, float64, error) {
	if src == dst {
		return []dist.Dist{src}, 0, nil
	}
	nodes := append([]dist.Dist{}, pl.candidates...)
	hasSrc, hasDst := false, false
	for _, n := range nodes {
		if n == src {
			hasSrc = true
		}
		if n == dst {
			hasDst = true
		}
	}
	if !hasSrc {
		nodes = append(nodes, src)
	}
	if !hasDst {
		nodes = append(nodes, dst)
	}
	distTo := make(map[dist.Dist]float64, len(nodes))
	prev := make(map[dist.Dist]dist.Dist, len(nodes))
	for _, n := range nodes {
		distTo[n] = math.Inf(1)
	}
	distTo[src] = 0
	// Bellman-Ford style relaxation (at most len(nodes)-1 sweeps).
	for iter := 0; iter < len(nodes); iter++ {
		changed := false
		for _, u := range nodes {
			if math.IsInf(distTo[u], 1) {
				continue
			}
			for _, v := range nodes {
				if v == u {
					continue
				}
				w, err := pl.DirectCost(u, v)
				if err != nil {
					return nil, 0, err
				}
				if distTo[u]+w < distTo[v]-1e-15 {
					distTo[v] = distTo[u] + w
					prev[v] = u
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	if math.IsInf(distTo[dst], 1) {
		return nil, 0, fmt.Errorf("fxplan: no route %v -> %v", src, dst)
	}
	// Reconstruct.
	var route []dist.Dist
	for at := dst; ; {
		route = append([]dist.Dist{at}, route...)
		if at == src {
			break
		}
		at = prev[at]
	}
	return route, distTo[dst], nil
}

// Schedule plans the redistribution moves for a phase sequence. cyclic
// indicates the program loops (a move is planned from the last phase back
// to the first, as in Airshed's main loop).
func (pl *Planner) Schedule(phases []Phase, cyclic bool) (*Plan, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("fxplan: no phases")
	}
	out := &Plan{}
	n := len(phases)
	last := n - 1
	if cyclic {
		last = n
	}
	for i := 0; i < last; i++ {
		cur := phases[i%n]
		next := phases[(i+1)%n]
		if cur.Dist == next.Dist {
			continue
		}
		route, cost, err := pl.Route(cur.Dist, next.Dist)
		if err != nil {
			return nil, err
		}
		out.Moves = append(out.Moves, Move{
			After:  cur.Name,
			Before: next.Name,
			Route:  route,
			Cost:   cost,
		})
		out.CommCost += cost
	}
	return out, nil
}

// AirshedMainLoop returns the phase sequence of the paper's Figure 1 main
// loop body: transport, chemistry, aerosol, transport (the trailing and
// next iteration's leading transport share a distribution, so one entry
// represents both).
func AirshedMainLoop() []Phase {
	return []Phase{
		{Name: "transport", Dist: dist.DTrans},
		{Name: "chemistry", Dist: dist.DChem},
		{Name: "aerosol", Dist: dist.DRepl},
	}
}
