package fx

import (
	"math"
	"testing"
	"testing/quick"

	"airshed/internal/dist"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// at reads element (s, l, c) straight from its owner's shard.
func at(a *Array, s, l, c int) float64 {
	n := a.owner(s, l, c)
	if a.d.Kind == dist.Replicated {
		return a.repl[a.localOffset(n, s, l, c)]
	}
	return a.shards[n][a.localOffset(n, s, l, c)]
}

func newRT(t *testing.T, p int) *Runtime {
	t.Helper()
	m, err := vm.New(machine.CrayT3E(), p)
	if err != nil {
		t.Fatal(err)
	}
	return NewRuntime(m)
}

func seqShape() dist.Shape { return dist.Shape{Species: 7, Layers: 5, Cells: 30} }

// fillPattern writes a recognisable value into each element.
func pattern(sh dist.Shape) []float64 {
	g := make([]float64, sh.Len())
	for c := 0; c < sh.Cells; c++ {
		for l := 0; l < sh.Layers; l++ {
			for s := 0; s < sh.Species; s++ {
				g[sh.Index(s, l, c)] = float64(s) + 100*float64(l) + 10000*float64(c)
			}
		}
	}
	return g
}

func TestNewArrayValidation(t *testing.T) {
	rt := newRT(t, 4)
	if _, err := NewArray(rt, dist.Shape{}, dist.DRepl); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := NewArrayFrom(rt, seqShape(), dist.DRepl, make([]float64, 3)); err == nil {
		t.Error("short global accepted")
	}
}

func TestArrayRoundTripAllDists(t *testing.T) {
	sh := seqShape()
	global := pattern(sh)
	dists := []dist.Dist{
		dist.DRepl, dist.DTrans, dist.DChem,
		{Kind: dist.Block, Dim: dist.AxisSpecies},
		{Kind: dist.Cyclic, Dim: dist.AxisCells},
		{Kind: dist.Cyclic, Dim: dist.AxisLayers},
		{Kind: dist.Cyclic, Dim: dist.AxisSpecies},
	}
	for _, d := range dists {
		for _, p := range []int{1, 2, 3, 5, 8, 16} {
			rt := newRT(t, p)
			a, err := NewArrayFrom(rt, sh, d, global)
			if err != nil {
				t.Fatalf("%v p=%d: %v", d, p, err)
			}
			got := make([]float64, sh.Len())
			a.gatherInto(got)
			for i := range global {
				if got[i] != global[i] {
					t.Fatalf("%v p=%d: element %d = %g, want %g", d, p, i, got[i], global[i])
				}
			}
			// Element access.
			if v := at(a, 3, 2, 7); v != global[sh.Index(3, 2, 7)] {
				t.Fatalf("%v p=%d: at = %g", d, p, v)
			}
		}
	}
}

// Redistribution must preserve array contents exactly — the paper's
// compiler-generated communication moves data without transforming it.
func TestRedistributePreservesData(t *testing.T) {
	sh := seqShape()
	global := pattern(sh)
	cycle := []dist.Dist{dist.DRepl, dist.DTrans, dist.DChem, dist.DRepl, dist.DChem, dist.DTrans}
	for _, p := range []int{1, 2, 4, 5, 8, 16} {
		rt := newRT(t, p)
		a, err := NewArrayFrom(rt, sh, dist.DRepl, global)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cycle {
			if _, err := a.Redistribute(d); err != nil {
				t.Fatalf("p=%d -> %v: %v", p, d, err)
			}
			got := make([]float64, sh.Len())
			a.gatherInto(got)
			for i := range global {
				if got[i] != global[i] {
					t.Fatalf("p=%d after -> %v: element %d corrupted", p, d, i)
				}
			}
		}
	}
}

// The virtual cost of a redistribution must equal the plan's max node cost
// (bulk-synchronous law).
func TestRedistributeChargesPlanCost(t *testing.T) {
	sh := dist.Shape{Species: 35, Layers: 5, Cells: 700}
	for _, p := range []int{4, 8, 16} {
		rt := newRT(t, p)
		a, err := NewArray(rt, sh, dist.DChem)
		if err != nil {
			t.Fatal(err)
		}
		before := rt.VM.Elapsed()
		plan, err := a.Redistribute(dist.DRepl)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := rt.VM.Elapsed() - before
		want := plan.MaxCost(rt.VM.Profile())
		if math.Abs(elapsed-want) > 1e-12 {
			t.Errorf("p=%d: charged %g, plan max cost %g", p, elapsed, want)
		}
		if got := rt.VM.CategorySeconds(vm.CatComm); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%d: comm category %g, want %g", p, got, want)
		}
	}
}

// Property: redistribution through any sequence of the Airshed cycle
// preserves data for random shapes and node counts.
func TestRedistributeQuick(t *testing.T) {
	f := func(sp, la, ce, pp uint8) bool {
		sh := dist.Shape{Species: int(sp%6) + 1, Layers: int(la%5) + 1, Cells: int(ce%20) + 1}
		p := int(pp%12) + 1
		m, err := vm.New(machine.CrayT3E(), p)
		if err != nil {
			return false
		}
		rt := NewRuntime(m)
		global := pattern(sh)
		a, err := NewArrayFrom(rt, sh, dist.DRepl, global)
		if err != nil {
			return false
		}
		for _, d := range []dist.Dist{dist.DTrans, dist.DChem, dist.DRepl} {
			if _, err := a.Redistribute(d); err != nil {
				return false
			}
		}
		got := make([]float64, sh.Len())
		a.gatherInto(got)
		for i := range global {
			if got[i] != global[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
