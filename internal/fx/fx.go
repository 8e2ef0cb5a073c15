// Package fx is an explicit Go reconstruction of the programming model the
// paper's Fx compiler provides: HPF-style distributed arrays with
// compiler-generated redistribution communication, the optimal mapping
// of a task pipeline onto node subgroups, and the host execution engine
// the simulation's data-parallel phases run on.
//
// The runtime executes real data movement and real numerics in ordinary Go
// while charging a virtual bulk-synchronous machine (package vm) for what
// each operation would have cost on the target computer (package machine),
// using exactly the per-node message/byte/copy accounting of the paper's
// Section 4 performance model (package dist).
package fx

import (
	"fmt"

	"airshed/internal/dist"
	"airshed/internal/vm"
)

// Runtime couples the virtual machine with the distributed-array layer.
type Runtime struct {
	VM *vm.Machine
}

// NewRuntime wraps a virtual machine.
func NewRuntime(m *vm.Machine) *Runtime {
	return &Runtime{VM: m}
}

// P returns the machine size.
func (rt *Runtime) P() int { return rt.VM.P() }

// Array is a distributed 3-D concentration array A(species, layers,
// cells). Replicated arrays share a single backing buffer across nodes
// (the replicas are bit-identical by construction, and sharing keeps
// 128-node runs addressable); partitioned arrays hold one shard per node.
type Array struct {
	rt    *Runtime
	Shape dist.Shape
	d     dist.Dist

	repl   []float64   // backing when d.Kind == Replicated
	shards [][]float64 // per-node shards otherwise

	// Redistribution scratch: the Airshed cycle revisits the same
	// distributions four times per time step, so retiring buffers
	// are parked per distribution and revived on the next visit, the
	// staging buffer is kept, and plans are memoised — the steady-state
	// step path allocates nothing. Every reused element is overwritten
	// by the scatter, so reuse cannot change values.
	retired   map[dist.Dist]arrayBuffers
	globalBuf []float64
	plans     map[planKey]*dist.Plan
}

// arrayBuffers is one distribution's parked backing storage.
type arrayBuffers struct {
	repl   []float64
	shards [][]float64
}

// planKey identifies a memoised redistribution plan.
type planKey struct {
	from, to dist.Dist
}

// NewArray allocates a distributed array with the given distribution,
// zero-filled.
func NewArray(rt *Runtime, sh dist.Shape, d dist.Dist) (*Array, error) {
	if !sh.Valid() {
		return nil, fmt.Errorf("fx: invalid shape %v", sh)
	}
	a := &Array{rt: rt, Shape: sh, d: d}
	if err := a.alloc(d); err != nil {
		return nil, err
	}
	return a, nil
}

// NewArrayFrom allocates a distributed array initialised from a full
// global array in canonical layout (species fastest).
func NewArrayFrom(rt *Runtime, sh dist.Shape, d dist.Dist, global []float64) (*Array, error) {
	if len(global) != sh.Len() {
		return nil, fmt.Errorf("fx: global array has %d values, want %d", len(global), sh.Len())
	}
	a, err := NewArray(rt, sh, d)
	if err != nil {
		return nil, err
	}
	a.scatterGlobal(global)
	return a, nil
}

func (a *Array) alloc(d dist.Dist) error {
	p := a.rt.P()
	a.d = d
	if d.Kind == dist.Replicated {
		a.repl = make([]float64, a.Shape.Len())
		a.shards = nil
		return nil
	}
	a.repl = nil
	a.shards = make([][]float64, p)
	for n := 0; n < p; n++ {
		a.shards[n] = make([]float64, dist.OwnedCount(a.Shape, d, p, n))
	}
	return nil
}

// swapTo parks the current distribution's buffers and installs the
// target's — revived from an earlier visit when possible, allocated on
// first use. The caller must overwrite the revived storage completely
// (scatterGlobal does).
func (a *Array) swapTo(to dist.Dist) error {
	if a.retired == nil {
		a.retired = make(map[dist.Dist]arrayBuffers)
	}
	a.retired[a.d] = arrayBuffers{repl: a.repl, shards: a.shards}
	if bufs, ok := a.retired[to]; ok {
		delete(a.retired, to)
		a.d = to
		a.repl = bufs.repl
		a.shards = bufs.shards
		return nil
	}
	return a.alloc(to)
}

// localOffset maps a global element (s, l, c) to the offset inside the
// owning node's shard. The caller must pass the owning node.
func (a *Array) localOffset(node, s, l, c int) int {
	sh := a.Shape
	switch a.d.Kind {
	case dist.Replicated:
		return sh.Index(s, l, c)
	case dist.Block:
		switch a.d.Dim {
		case dist.AxisCells:
			lo := dist.BlockOwner(sh.Cells, a.rt.P(), node).Lo
			return s + sh.Species*(l+sh.Layers*(c-lo))
		case dist.AxisLayers:
			iv := dist.BlockOwner(sh.Layers, a.rt.P(), node)
			return s + sh.Species*((l-iv.Lo)+iv.Len()*c)
		default: // species axis
			iv := dist.BlockOwner(sh.Species, a.rt.P(), node)
			return (s - iv.Lo) + iv.Len()*(l+sh.Layers*c)
		}
	case dist.Cyclic:
		p := a.rt.P()
		switch a.d.Dim {
		case dist.AxisCells:
			return s + sh.Species*(l+sh.Layers*((c-node)/p))
		case dist.AxisLayers:
			nloc := dist.CyclicCount(sh.Layers, p, node)
			return s + sh.Species*((l-node)/p+nloc*c)
		default:
			nloc := dist.CyclicCount(sh.Species, p, node)
			return (s-node)/p + nloc*(l+sh.Layers*c)
		}
	default:
		panic("fx: bad distribution kind")
	}
}

// owner returns the node owning element (s, l, c); for replicated arrays
// it returns 0 (any node).
func (a *Array) owner(s, l, c int) int {
	p := a.rt.P()
	switch a.d.Kind {
	case dist.Replicated:
		return 0
	case dist.Block:
		switch a.d.Dim {
		case dist.AxisCells:
			return dist.BlockOwnerOf(a.Shape.Cells, p, c)
		case dist.AxisLayers:
			return dist.BlockOwnerOf(a.Shape.Layers, p, l)
		default:
			return dist.BlockOwnerOf(a.Shape.Species, p, s)
		}
	case dist.Cyclic:
		switch a.d.Dim {
		case dist.AxisCells:
			return dist.CyclicOwnerOf(p, c)
		case dist.AxisLayers:
			return dist.CyclicOwnerOf(p, l)
		default:
			return dist.CyclicOwnerOf(p, s)
		}
	default:
		panic("fx: bad distribution kind")
	}
}

// scatterGlobal loads a full canonical array into the current shards.
// The Block distributions take bulk-copy fast paths: a DChem shard is a
// contiguous span of the canonical array, and a DTrans shard is one
// contiguous species-x-layers run per cell.
func (a *Array) scatterGlobal(global []float64) {
	sh := a.Shape
	p := a.rt.P()
	switch {
	case a.d.Kind == dist.Replicated:
		copy(a.repl, global)
	case a.d.Kind == dist.Block && a.d.Dim == dist.AxisCells:
		blk := sh.Species * sh.Layers
		for n := 0; n < p; n++ {
			iv := dist.BlockOwner(sh.Cells, p, n)
			copy(a.shards[n], global[blk*iv.Lo:blk*iv.Hi])
		}
	case a.d.Kind == dist.Block && a.d.Dim == dist.AxisLayers:
		for n := 0; n < p; n++ {
			iv := dist.BlockOwner(sh.Layers, p, n)
			run := sh.Species * iv.Len()
			shard := a.shards[n]
			for c := 0; c < sh.Cells; c++ {
				src := sh.Species * (iv.Lo + sh.Layers*c)
				copy(shard[run*c:run*(c+1)], global[src:src+run])
			}
		}
	default:
		for c := 0; c < sh.Cells; c++ {
			for l := 0; l < sh.Layers; l++ {
				for s := 0; s < sh.Species; s++ {
					n := a.owner(s, l, c)
					a.shards[n][a.localOffset(n, s, l, c)] = global[sh.Index(s, l, c)]
				}
			}
		}
	}
}

// gatherInto assembles the full canonical array into out (length
// Shape.Len()), taking the same bulk-copy fast paths as scatterGlobal.
func (a *Array) gatherInto(out []float64) {
	sh := a.Shape
	p := a.rt.P()
	switch {
	case a.d.Kind == dist.Replicated:
		copy(out, a.repl)
	case a.d.Kind == dist.Block && a.d.Dim == dist.AxisCells:
		blk := sh.Species * sh.Layers
		for n := 0; n < p; n++ {
			iv := dist.BlockOwner(sh.Cells, p, n)
			copy(out[blk*iv.Lo:blk*iv.Hi], a.shards[n])
		}
	case a.d.Kind == dist.Block && a.d.Dim == dist.AxisLayers:
		for n := 0; n < p; n++ {
			iv := dist.BlockOwner(sh.Layers, p, n)
			run := sh.Species * iv.Len()
			shard := a.shards[n]
			for c := 0; c < sh.Cells; c++ {
				dst := sh.Species * (iv.Lo + sh.Layers*c)
				copy(out[dst:dst+run], shard[run*c:run*(c+1)])
			}
		}
	default:
		for c := 0; c < sh.Cells; c++ {
			for l := 0; l < sh.Layers; l++ {
				for s := 0; s < sh.Species; s++ {
					n := a.owner(s, l, c)
					out[sh.Index(s, l, c)] = a.shards[n][a.localOffset(n, s, l, c)]
				}
			}
		}
	}
}

// Redistribute changes the distribution, physically moving the data and
// charging every node its share of the communication plan (the paper's
// Ct = L*m + G*b + H*c), followed by a barrier. It returns the plan for
// inspection.
func (a *Array) Redistribute(to dist.Dist) (*dist.Plan, error) {
	prof := a.rt.VM.Profile()
	key := planKey{from: a.d, to: to}
	plan, ok := a.plans[key]
	if !ok {
		var err error
		plan, err = dist.NewPlan(a.Shape, a.d, to, a.rt.P(), prof.WordSize)
		if err != nil {
			return nil, err
		}
		if a.plans == nil {
			a.plans = make(map[planKey]*dist.Plan)
		}
		a.plans[key] = plan
	}
	// Physical move: gather via the old distribution into the staging
	// buffer, swap to the target distribution's parked storage, load.
	// (The virtual cost is the plan's; the host-side implementation is
	// free to be simple.)
	if a.d != to {
		if a.globalBuf == nil {
			a.globalBuf = make([]float64, a.Shape.Len())
		}
		a.gatherInto(a.globalBuf)
		if err := a.swapTo(to); err != nil {
			return nil, err
		}
		a.scatterGlobal(a.globalBuf)
	}
	for n := range plan.Traffic {
		a.rt.VM.ChargeSeconds(n, vm.CatComm, plan.Traffic[n].Cost(prof))
	}
	a.rt.VM.Barrier()
	return plan, nil
}
