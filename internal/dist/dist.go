// Package dist implements HPF-style data distributions for the Airshed
// concentration array and the redistribution cost/communication plans at
// the centre of the paper's performance model (Section 4.2).
//
// The main Airshed data structure is the 3-dimensional concentration array
// A(species, layers, nodes). To avoid confusion between grid nodes and
// machine nodes, this package (and the rest of the repository) calls the
// third dimension "cells": A(species, layers, cells).
//
// The paper uses three distributions of A:
//
//	D_Repl  = A(*,*,*)        replicated (I/O processing, aerosol)
//	D_Trans = A(*,BLOCK,*)    block over layers (horizontal transport)
//	D_Chem  = A(*,*,BLOCK)    block over cells (chemistry + vertical transport)
//
// A Plan is, for a redistribution between two distributions on P machine
// nodes, exactly the per-node quantities of the paper's cost equation
// Ct = L*m + G*b + H*c: messages sent and received, bytes sent and
// received, and bytes copied locally. NewPlan computes them in closed form
// in O(P) for every redistribution of the Airshed cycle; it keeps no list
// of individual messages.
package dist

import (
	"fmt"
)

// Axis identifies one dimension of the concentration array.
type Axis int

// Axes of A(species, layers, cells).
const (
	AxisSpecies Axis = iota
	AxisLayers
	AxisCells
)

// String returns the axis name.
func (a Axis) String() string {
	switch a {
	case AxisSpecies:
		return "species"
	case AxisLayers:
		return "layers"
	case AxisCells:
		return "cells"
	default:
		return fmt.Sprintf("axis(%d)", int(a))
	}
}

// Shape is the extent of the concentration array along each axis.
type Shape struct {
	Species int
	Layers  int
	Cells   int
}

// Valid reports whether all extents are positive.
func (s Shape) Valid() bool { return s.Species > 0 && s.Layers > 0 && s.Cells > 0 }

// Len returns the total number of elements.
func (s Shape) Len() int { return s.Species * s.Layers * s.Cells }

// Extent returns the length of the given axis.
func (s Shape) Extent(a Axis) int {
	switch a {
	case AxisSpecies:
		return s.Species
	case AxisLayers:
		return s.Layers
	case AxisCells:
		return s.Cells
	default:
		panic(fmt.Sprintf("dist: bad axis %d", int(a)))
	}
}

// Index linearises (species s, layer l, cell c) with species fastest, then
// layers, then cells: idx = s + Species*(l + Layers*c). The cells axis is
// therefore the slowest-varying, matching the chemistry loop order.
func (s Shape) Index(sp, l, c int) int {
	return sp + s.Species*(l+s.Layers*c)
}

// Bytes returns the storage size of the full array with wordSize-byte words.
func (s Shape) Bytes(wordSize int) int64 {
	return int64(s.Len()) * int64(wordSize)
}

// String implements fmt.Stringer.
func (s Shape) String() string {
	return fmt.Sprintf("A(%d,%d,%d)", s.Species, s.Layers, s.Cells)
}

// Kind is the distribution class.
type Kind int

// Distribution kinds supported by the runtime. The paper's Airshed uses
// Replicated and Block; Cyclic is provided for completeness of the
// HPF-style runtime and exercised in tests.
const (
	Replicated Kind = iota
	Block
	Cyclic
)

// String returns the HPF-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Replicated:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Dist is a distribution of the concentration array: either replicated, or
// partitioned along one axis.
type Dist struct {
	Kind Kind
	Dim  Axis // meaningful for Block and Cyclic
}

// The three distributions used by the Airshed main loop.
var (
	// DRepl is A(*,*,*): every machine node holds the whole array.
	DRepl = Dist{Kind: Replicated}
	// DTrans is A(*,BLOCK,*): layers are block-distributed.
	DTrans = Dist{Kind: Block, Dim: AxisLayers}
	// DChem is A(*,*,BLOCK): cells are block-distributed.
	DChem = Dist{Kind: Block, Dim: AxisCells}
)

// String prints the distribution in HPF directive style.
func (d Dist) String() string {
	star := func(a Axis) string {
		if d.Kind == Replicated || d.Dim != a {
			return "*"
		}
		return d.Kind.String()
	}
	return fmt.Sprintf("A(%s,%s,%s)", star(AxisSpecies), star(AxisLayers), star(AxisCells))
}

// Interval is a half-open index range [Lo, Hi).
type Interval struct {
	Lo, Hi int
}

// Len returns the number of indices in the interval.
func (iv Interval) Len() int {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether i is in the interval.
func (iv Interval) Contains(i int) bool { return i >= iv.Lo && i < iv.Hi }

// BlockSize returns the most indices any one of p nodes owns of an axis
// of extent n under BLOCK: the HPF block size ceil(n/p). For n, p >= 1 it
// equals the paper's ceil(n/min(n,p)) (Section 4.1), the slowest node's
// share of a data-parallel phase.
func BlockSize(n, p int) int { return (n + p - 1) / p }

// BlockOwner returns the owner interval of node on an axis of extent n
// under a BLOCK distribution over p nodes. Nodes past the data own the
// empty interval.
func BlockOwner(n, p, node int) Interval {
	bs := BlockSize(n, p)
	lo := node * bs
	hi := lo + bs
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return Interval{lo, hi}
}

// BlockOwnerOf returns which node owns index i under BLOCK(n, p).
func BlockOwnerOf(n, p, i int) int {
	return i / BlockSize(n, p)
}

// CyclicOwnerOf returns which node owns index i under CYCLIC on p nodes.
func CyclicOwnerOf(p, i int) int { return i % p }

// CyclicCount returns how many of the n indices node owns under CYCLIC.
func CyclicCount(n, p, node int) int {
	if node >= p {
		return 0
	}
	full := n / p
	if node < n%p {
		return full + 1
	}
	return full
}

// OwnedCount returns the number of elements of the full array that node
// stores under distribution d on p nodes.
func OwnedCount(sh Shape, d Dist, p, node int) int {
	switch d.Kind {
	case Replicated:
		return sh.Len()
	case Block:
		n := sh.Extent(d.Dim)
		return BlockOwner(n, p, node).Len() * sh.Len() / n
	case Cyclic:
		n := sh.Extent(d.Dim)
		return CyclicCount(n, p, node) * sh.Len() / n
	default:
		panic(fmt.Sprintf("dist: bad kind %d", int(d.Kind)))
	}
}

// Owner reports whether node owns (stores) element index i along the
// distributed axis under distribution d on p nodes. For Replicated every
// node owns every index.
func Owner(sh Shape, d Dist, p, node, i int) bool {
	switch d.Kind {
	case Replicated:
		return true
	case Block:
		return BlockOwner(sh.Extent(d.Dim), p, node).Contains(i)
	case Cyclic:
		return i%p == node
	default:
		panic(fmt.Sprintf("dist: bad kind %d", int(d.Kind)))
	}
}

// OwnedIndices returns the indices along the distributed axis that node
// owns under d on p nodes, in increasing order. For Replicated it returns
// the full index range of... the axis is ambiguous, so Replicated returns
// nil and callers must special-case it (every node owns everything).
func OwnedIndices(sh Shape, d Dist, p, node int) []int {
	switch d.Kind {
	case Replicated:
		return nil
	case Block:
		iv := BlockOwner(sh.Extent(d.Dim), p, node)
		out := make([]int, 0, iv.Len())
		for i := iv.Lo; i < iv.Hi; i++ {
			out = append(out, i)
		}
		return out
	case Cyclic:
		n := sh.Extent(d.Dim)
		out := make([]int, 0, CyclicCount(n, p, node))
		for i := node; i < n; i += p {
			out = append(out, i)
		}
		return out
	default:
		panic(fmt.Sprintf("dist: bad kind %d", int(d.Kind)))
	}
}
