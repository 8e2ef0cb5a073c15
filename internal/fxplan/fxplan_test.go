package fxplan

import (
	"math"
	"testing"

	"airshed/internal/dist"
	"airshed/internal/machine"
)

func laShape() dist.Shape { return dist.Shape{Species: 35, Layers: 5, Cells: 700} }

func newPlanner(t *testing.T, p int) *Planner {
	t.Helper()
	pl, err := NewPlanner(laShape(), machine.CrayT3E(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(dist.Shape{}, machine.CrayT3E(), 4); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := NewPlanner(laShape(), &machine.Profile{}, 4); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := NewPlanner(laShape(), machine.CrayT3E(), 0); err == nil {
		t.Error("zero nodes accepted")
	}
}

// The planner must derive the paper's Section 2.2 redistribution cycle
// from the main loop's phase requirements: D_Trans -> D_Chem,
// D_Chem -> D_Repl, D_Repl -> D_Trans.
func TestDerivesPaperCycle(t *testing.T) {
	pl := newPlanner(t, 16)
	plan, err := pl.Schedule(AirshedMainLoop(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 3 {
		t.Fatalf("planned %d moves, want 3", len(plan.Moves))
	}
	wants := [][2]dist.Dist{
		{dist.DTrans, dist.DChem},
		{dist.DChem, dist.DRepl},
		{dist.DRepl, dist.DTrans},
	}
	for i, w := range wants {
		m := plan.Moves[i]
		if m.Route[0] != w[0] || m.Route[len(m.Route)-1] != w[1] {
			t.Errorf("move %d: %v -> %v, want %v -> %v",
				i, m.Route[0], m.Route[len(m.Route)-1], w[0], w[1])
		}
		// All three in-loop moves are direct (single hop) at this
		// scale.
		if hops := len(m.Route) - 1; hops != 1 {
			t.Errorf("move %d (%s -> %s) uses %d hops", i, m.After, m.Before, hops)
		}
		if m.Cost <= 0 {
			t.Errorf("move %d has zero cost", i)
		}
	}
	if plan.CommCost <= 0 {
		t.Error("zero plan cost")
	}
}

// The planner must discover the two-phase route for the hour-boundary
// gather at scale: D_Trans -> D_Repl through D_Chem beats the direct
// all-to-all of layer slabs once P is large.
func TestDiscoversTwoPhaseGather(t *testing.T) {
	pl := newPlanner(t, 128)
	route, cost, err := pl.Route(dist.DTrans, dist.DRepl)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 || route[1] != dist.DChem {
		t.Fatalf("route at P=128: %v, want two-phase through D_Chem", route)
	}
	direct, err := pl.DirectCost(dist.DTrans, dist.DRepl)
	if err != nil {
		t.Fatal(err)
	}
	if cost >= direct {
		t.Errorf("two-phase cost %g not below direct %g", cost, direct)
	}
	// And the improvement is substantial at this scale.
	if cost > direct/3 {
		t.Errorf("expected a large win at P=128: %g vs %g", cost, direct)
	}
}

// Route costs must never exceed the direct cost (the direct edge is in
// the graph).
func TestRouteNeverWorseThanDirect(t *testing.T) {
	dists := []dist.Dist{dist.DRepl, dist.DTrans, dist.DChem}
	for _, p := range []int{2, 4, 8, 32, 128} {
		pl := newPlanner(t, p)
		for _, src := range dists {
			for _, dst := range dists {
				route, cost, err := pl.Route(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := pl.DirectCost(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if cost > direct+1e-15 {
					t.Errorf("p=%d %v->%v: routed %g > direct %g", p, src, dst, cost, direct)
				}
				if src == dst && (len(route) != 1 || cost != 0) {
					t.Errorf("identity route: %v cost %g", route, cost)
				}
				// Route cost equals the sum of its hops.
				sum := 0.0
				for i := 0; i+1 < len(route); i++ {
					c, err := pl.DirectCost(route[i], route[i+1])
					if err != nil {
						t.Fatal(err)
					}
					sum += c
				}
				if math.Abs(sum-cost) > 1e-12 {
					t.Errorf("p=%d %v->%v: route sum %g != cost %g", p, src, dst, sum, cost)
				}
			}
		}
	}
}

// A route may end at a distribution outside the planner's candidates.
func TestRouteToDistributionOutsideCandidates(t *testing.T) {
	pl := newPlanner(t, 8)
	extra := dist.Dist{Kind: dist.Block, Dim: dist.AxisSpecies}
	route, _, err := pl.Route(dist.DTrans, extra)
	if err != nil {
		t.Fatal(err)
	}
	if route[len(route)-1] != extra {
		t.Error("route does not reach the new candidate")
	}
}

func TestScheduleValidation(t *testing.T) {
	pl := newPlanner(t, 8)
	if _, err := pl.Schedule(nil, true); err == nil {
		t.Error("empty program accepted")
	}
	// Acyclic schedule of n phases has at most n-1 moves and no
	// wrap-around.
	plan, err := pl.Schedule(AirshedMainLoop(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Errorf("acyclic moves: %d, want 2", len(plan.Moves))
	}
	// Same-distribution neighbours need no move.
	plan2, err := pl.Schedule([]Phase{
		{Name: "a", Dist: dist.DTrans},
		{Name: "b", Dist: dist.DTrans},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Moves) != 0 {
		t.Errorf("moves between same distributions: %v", plan2.Moves)
	}
}

// The planner's in-loop choices must agree with what the Airshed driver
// hard-codes: the three in-loop moves direct, and the hourly gather route
// matching the driver's two-phase path for P >= 8.
func TestPlannerMatchesDriverChoices(t *testing.T) {
	for _, p := range []int{8, 16, 32, 64, 128} {
		pl := newPlanner(t, p)
		route, _, err := pl.Route(dist.DTrans, dist.DRepl)
		if err != nil {
			t.Fatal(err)
		}
		if len(route) != 3 || route[1] != dist.DChem {
			t.Errorf("p=%d: hourly gather route %v, driver uses D_Trans->D_Chem->D_Repl", p, route)
		}
	}
}
