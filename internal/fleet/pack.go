package fleet

import (
	"fmt"
	"sort"

	"airshed/internal/machine"
	"airshed/internal/perfmodel"
	"airshed/internal/scenario"
)

// Capacity describes one live worker for shard packing: its advertised
// machine profile and the host-parallel width its jobs actually run at.
type Capacity struct {
	// Name identifies the worker (registry key; used for deterministic
	// tie-breaking, so keep it unique).
	Name string
	// Profile is the worker's advertised machine profile; FlopTime sets
	// its per-slot speed.
	Profile *machine.Profile
	// Slots is the worker's effective parallel width — its advertised
	// host-worker count (0 and negative normalize to 1).
	Slots int
	// Sick marks a worker whose heartbeats report quarantined store
	// artifacts: its storage is corrupting data, so the packer halves
	// its effective speed — it keeps serving (quarantine + verified
	// reads contain the damage) but stops being a preferred destination
	// until its store comes back clean.
	Sick bool
}

// Speed is the worker's effective work rate in CostEstimate units per
// second: slots over seconds-per-flop.
func (c Capacity) Speed() float64 {
	slots := c.Slots
	if slots < 1 {
		slots = 1
	}
	speed := float64(slots) / c.Profile.FlopTime
	if c.Sick {
		speed /= 2
	}
	return speed
}

// unit is one indivisible packing unit: a warm-start family of specs
// that must land on the same worker so they share checkpoints through
// that worker's seed pass instead of racing each other across hosts.
type unit struct {
	specs []int // indices into the spec list, in input order
	cost  float64
}

// Pack shards specs across workers by greedy LPT (longest processing
// time first) over perfmodel cost estimates: specs are first grouped
// into warm-start families (any two specs sharing a physics-prefix
// boundary hash — the same relation sweep.SeedSpecs seeds — pack as one
// unit), units are sorted by descending estimated work, and each is
// placed on the worker that would finish it earliest given the load
// already assigned and the worker's Speed. The result is parallel to
// workers; workers[i]'s shard preserves the input spec order. Pack is
// deterministic: equal costs tie-break on spec position, equal finish
// times on worker order.
func Pack(specs []scenario.Spec, workers []Capacity) ([][]scenario.Spec, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers to pack onto")
	}
	for _, w := range workers {
		if w.Profile == nil {
			return nil, fmt.Errorf("fleet: worker %q has no machine profile", w.Name)
		}
		if err := w.Profile.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: worker %q: %w", w.Name, err)
		}
	}

	units, err := familyUnits(specs)
	if err != nil {
		return nil, err
	}
	// LPT order: biggest unit first; ties keep the earlier-submitted unit
	// first so placement never depends on map iteration.
	sort.SliceStable(units, func(i, j int) bool { return units[i].cost > units[j].cost })

	shards := make([][]scenario.Spec, len(workers))
	loads := make([]float64, len(workers))
	for _, u := range units {
		best, bestFinish := -1, 0.0
		for i, w := range workers {
			finish := (loads[i] + u.cost) / w.Speed()
			if best < 0 || finish < bestFinish {
				best, bestFinish = i, finish
			}
		}
		loads[best] += u.cost
		for _, si := range u.specs {
			shards[best] = append(shards[best], specs[si])
		}
	}
	for i := range shards {
		sh := shards[i]
		sort.SliceStable(sh, func(a, b int) bool { return specPos(specs, sh[a]) < specPos(specs, sh[b]) })
	}
	return shards, nil
}

// familyUnits groups specs into warm-start families by union-find on
// their physics-prefix boundary hashes and sums each family's estimated
// cost.
func familyUnits(specs []scenario.Spec) ([]unit, error) {
	parent := make([]int, len(specs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	byBoundary := make(map[string]int)
	for i, sp := range specs {
		n := sp.Normalize()
		for _, k := range n.PrefixBoundaries() {
			ph := n.PhysicsPrefixHash(k)
			if j, ok := byBoundary[ph]; ok {
				union(i, j)
			} else {
				byBoundary[ph] = i
			}
		}
	}

	roots := make(map[int]*unit)
	var order []int
	for i, sp := range specs {
		r := find(i)
		u, ok := roots[r]
		if !ok {
			u = &unit{}
			roots[r] = u
			order = append(order, r)
		}
		cost, err := perfmodel.CostEstimate(sp)
		if err != nil {
			return nil, fmt.Errorf("fleet: estimating %s: %w", sp.Normalize().Hash(), err)
		}
		u.specs = append(u.specs, i)
		u.cost += cost
	}
	units := make([]unit, 0, len(order))
	for _, r := range order {
		units = append(units, *roots[r])
	}
	return units, nil
}

func specPos(specs []scenario.Spec, sp scenario.Spec) int {
	for i := range specs {
		if specs[i] == sp {
			return i
		}
	}
	return len(specs)
}
