package dist

import (
	"fmt"

	"airshed/internal/machine"
)

// NodeTraffic is the per-machine-node communication load of one
// redistribution: the quantities m, b and c of the paper's cost equation.
type NodeTraffic struct {
	MsgsSent  int
	MsgsRecv  int
	BytesSent int64
	BytesRecv int64
	// BytesCopied counts bytes moved locally on the node without
	// crossing the interconnect (the c term, charged at H per byte).
	BytesCopied int64
}

// Cost evaluates the node's share of the communication phase on the given
// machine: L*(msgs sent + received) + G*max(bytes sent, bytes received) +
// H*copied. Taking the max of send and receive volume reflects the paper's
// observation that a phase is dominated by whichever end-point direction
// carries more data on the loaded node (send-dominated for
// D_Trans->D_Chem, receive-dominated for D_Chem->D_Repl).
func (t NodeTraffic) Cost(p *machine.Profile) float64 {
	b := t.BytesSent
	if t.BytesRecv > b {
		b = t.BytesRecv
	}
	return p.CommTime(t.MsgsSent+t.MsgsRecv, b, t.BytesCopied)
}

// Plan is the per-node traffic of redistributing the concentration array
// from Src to Dst on P machine nodes: the m, b and c of the paper's cost
// equation for every node, and nothing else. No message list is kept;
// the counts follow in closed form from the owned counts of the two
// distributions.
type Plan struct {
	Shape    Shape
	Src, Dst Dist
	P        int
	WordSize int

	// Traffic is indexed by machine node.
	Traffic []NodeTraffic
}

// NewPlan computes the per-node traffic of the redistribution from src to
// dst for the given array shape on p nodes with wordSize-byte elements.
// Node i sends node j the elements i owns under src that j owns under
// dst; a non-empty overlap is one message when i != j and a local copy
// (BytesCopied) when i == j.
//
// Every case the Airshed cycle uses costs O(p):
//
//   - src == dst: identity, nothing moves.
//
//   - src Replicated: no interconnect traffic at all. Every node copies its
//     dst-owned portion out of its local replica (BytesCopied). This is the
//     paper's D_Repl -> D_Trans: "a local data copy but no actual transfer
//     of data across nodes".
//
//   - dst Replicated: an all-gather. With shard sizes s_i summing to S over
//     k non-empty shards, a node with s_i > 0 sends s_i elements to each of
//     the p-1 others and copies its own shard; every node receives the
//     other k-[s_i>0] shards, S-s_i elements. This is D_Chem -> D_Repl.
//
//   - both partitioned on different axes: with owned axis counts a_i
//     (src) and b_j (dst), the i->j overlap is a_i*b_j times the extent of
//     the third axis, so each node's sums are a total minus its own term.
//     This is D_Trans -> D_Chem.
//
// Both partitioned on the same axis — BLOCK against CYCLIC, since two
// BLOCKs of one axis are equal and take the identity plan — which the
// Airshed cycle never does, intersects the owned index sets pair by pair
// in O(p^2).
func NewPlan(sh Shape, src, dst Dist, p, wordSize int) (*Plan, error) {
	if !sh.Valid() {
		return nil, fmt.Errorf("dist: invalid shape %v", sh)
	}
	if p <= 0 {
		return nil, fmt.Errorf("dist: node count must be positive, got %d", p)
	}
	if wordSize <= 0 {
		return nil, fmt.Errorf("dist: word size must be positive, got %d", wordSize)
	}
	pl := &Plan{Shape: sh, Src: src, Dst: dst, P: p, WordSize: wordSize,
		Traffic: make([]NodeTraffic, p)}
	if src == dst {
		return pl, nil
	}
	w := int64(wordSize)
	tr := pl.Traffic

	switch {
	case src.Kind == Replicated:
		for n := range tr {
			tr[n].BytesCopied = int64(OwnedCount(sh, dst, p, n)) * w
		}

	case dst.Kind == Replicated:
		shard := func(n int) int64 { return int64(OwnedCount(sh, src, p, n)) }
		var total int64
		nonEmpty := 0
		for n := range tr {
			s := shard(n)
			total += s
			if s > 0 {
				nonEmpty++
			}
		}
		for n := range tr {
			s := shard(n)
			tr[n].BytesCopied = s * w
			tr[n].BytesRecv = (total - s) * w
			tr[n].MsgsRecv = nonEmpty
			if s > 0 {
				tr[n].MsgsSent = p - 1
				tr[n].BytesSent = int64(p-1) * s * w
				tr[n].MsgsRecv--
			}
		}

	case src.Dim != dst.Dim:
		third := int64(sh.Len() / sh.Extent(src.Dim) / sh.Extent(dst.Dim))
		srcAxis := func(n int) int64 { return int64(ownedAxisCount(sh, src, p, n)) }
		dstAxis := func(n int) int64 { return int64(ownedAxisCount(sh, dst, p, n)) }
		var totalA, totalB int64
		nonEmptyA, nonEmptyB := 0, 0
		for n := range tr {
			a, b := srcAxis(n), dstAxis(n)
			totalA += a
			totalB += b
			if a > 0 {
				nonEmptyA++
			}
			if b > 0 {
				nonEmptyB++
			}
		}
		for n := range tr {
			a, b := srcAxis(n), dstAxis(n)
			tr[n].BytesCopied = a * b * third * w
			if a > 0 {
				tr[n].MsgsSent = nonEmptyB
				if b > 0 {
					tr[n].MsgsSent--
				}
				tr[n].BytesSent = a * (totalB - b) * third * w
			}
			if b > 0 {
				tr[n].MsgsRecv = nonEmptyA
				if a > 0 {
					tr[n].MsgsRecv--
				}
				tr[n].BytesRecv = b * (totalA - a) * third * w
			}
		}

	default:
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				elems := sameAxisOverlap(sh, src, dst, p, i, j)
				if elems == 0 {
					continue
				}
				bytes := int64(elems) * w
				if i == j {
					tr[i].BytesCopied += bytes
					continue
				}
				tr[i].MsgsSent++
				tr[i].BytesSent += bytes
				tr[j].MsgsRecv++
				tr[j].BytesRecv += bytes
			}
		}
	}
	return pl, nil
}

// sameAxisOverlap counts the elements node i owns under src that node j
// owns under dst, for two distributions partitioning the same axis: the
// owned index sets intersect and every other axis is full.
func sameAxisOverlap(sh Shape, src, dst Dist, p, i, j int) int {
	perIndex := sh.Len() / sh.Extent(src.Dim)
	count := 0
	for _, k := range OwnedIndices(sh, src, p, i) {
		if Owner(sh, dst, p, j, k) {
			count++
		}
	}
	return count * perIndex
}

// ownedAxisCount returns how many indices along d's distributed axis the
// node owns.
func ownedAxisCount(sh Shape, d Dist, p, node int) int {
	n := sh.Extent(d.Dim)
	switch d.Kind {
	case Block:
		return BlockOwner(n, p, node).Len()
	case Cyclic:
		return CyclicCount(n, p, node)
	default:
		panic(fmt.Sprintf("dist: ownedAxisCount on %v", d))
	}
}

// MaxCost returns the cost of the most loaded node on the machine: the
// paper's model of the phase time.
func (pl *Plan) MaxCost(prof *machine.Profile) float64 {
	max := 0.0
	for _, t := range pl.Traffic {
		if c := t.Cost(prof); c > max {
			max = c
		}
	}
	return max
}

// TotalBytesMoved sums the bytes of all point-to-point transfers.
func (pl *Plan) TotalBytesMoved() int64 {
	var total int64
	for _, t := range pl.Traffic {
		total += t.BytesSent
	}
	return total
}

// TotalMessages counts all point-to-point messages.
func (pl *Plan) TotalMessages() int {
	total := 0
	for _, t := range pl.Traffic {
		total += t.MsgsSent
	}
	return total
}

// TotalBytesCopied sums local copy volumes over nodes.
func (pl *Plan) TotalBytesCopied() int64 {
	var total int64
	for _, t := range pl.Traffic {
		total += t.BytesCopied
	}
	return total
}

// String summarises the plan.
func (pl *Plan) String() string {
	return fmt.Sprintf("%v -> %v on %d nodes: %d msgs, %d bytes moved, %d bytes copied",
		pl.Src, pl.Dst, pl.P, pl.TotalMessages(), pl.TotalBytesMoved(), pl.TotalBytesCopied())
}
