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

// Transfer is one point-to-point message of a redistribution plan: Elems
// array elements move from node From's shard to node To's shard. The
// element set is implied by ownership: exactly the elements From owns under
// the source distribution and To owns under the destination distribution.
type Transfer struct {
	From, To int
	Elems    int
}

// Plan is a complete communication plan for redistributing the
// concentration array from Src to Dst on P machine nodes.
type Plan struct {
	Shape    Shape
	Src, Dst Dist
	P        int
	WordSize int

	// Transfers lists every point-to-point message (From != To). Local
	// moves (From == To) are accounted in Traffic[n].BytesCopied and do
	// not appear here.
	Transfers []Transfer

	// Traffic is indexed by machine node.
	Traffic []NodeTraffic
}

// NewPlan builds the redistribution plan from src to dst for the given
// array shape on p nodes with wordSize-byte elements.
//
// Plan construction rules:
//
//   - src == dst: identity, nothing moves.
//
//   - src Replicated: no interconnect traffic at all. Every node copies its
//     dst-owned portion out of its local replica (BytesCopied). This is the
//     paper's D_Repl -> D_Trans: "a local data copy but no actual transfer
//     of data across nodes".
//
//   - dst Replicated: an all-gather. Every node sends its src-owned shard
//     to every other node and locally copies its own shard into the
//     replicated buffer. This is D_Chem -> D_Repl.
//
//   - both partitioned: node i sends to node j the elements i owns under
//     src that j owns under dst; the i==j overlap is a local copy. This is
//     D_Trans -> D_Chem.
//
// A message is counted only when the overlap is non-empty.
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

	switch {
	case src.Kind == Replicated:
		for n := 0; n < p; n++ {
			owned := OwnedCount(sh, dst, p, n)
			pl.Traffic[n].BytesCopied += int64(owned) * w
		}

	case dst.Kind == Replicated:
		for i := 0; i < p; i++ {
			shard := OwnedCount(sh, src, p, i)
			if shard == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				if j == i {
					pl.Traffic[i].BytesCopied += int64(shard) * w
					continue
				}
				pl.Transfers = append(pl.Transfers, Transfer{From: i, To: j, Elems: shard})
				pl.Traffic[i].MsgsSent++
				pl.Traffic[i].BytesSent += int64(shard) * w
				pl.Traffic[j].MsgsRecv++
				pl.Traffic[j].BytesRecv += int64(shard) * w
			}
		}

	default:
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				elems := overlapElems(sh, src, dst, p, i, j)
				if elems == 0 {
					continue
				}
				bytes := int64(elems) * w
				if i == j {
					pl.Traffic[i].BytesCopied += bytes
					continue
				}
				pl.Transfers = append(pl.Transfers, Transfer{From: i, To: j, Elems: elems})
				pl.Traffic[i].MsgsSent++
				pl.Traffic[i].BytesSent += bytes
				pl.Traffic[j].MsgsRecv++
				pl.Traffic[j].BytesRecv += bytes
			}
		}
	}
	return pl, nil
}

// overlapElems counts the elements node i owns under src that node j owns
// under dst, for two partitioned (Block or Cyclic) distributions.
func overlapElems(sh Shape, src, dst Dist, p, i, j int) int {
	if src.Dim == dst.Dim {
		// Same axis: intersect the two owned index sets; every other
		// axis is full.
		perIndex := sh.Len() / sh.Extent(src.Dim)
		if src.Kind == Block && dst.Kind == Block {
			n := sh.Extent(src.Dim)
			iv := BlockOwner(n, p, i).Intersect(BlockOwner(n, p, j))
			return iv.Len() * perIndex
		}
		count := 0
		for _, k := range OwnedIndices(sh, src, p, i) {
			if Owner(sh, dst, p, j, k) {
				count++
			}
		}
		return count * perIndex
	}
	// Different axes: cross product of the two owned counts times the
	// extent of the remaining axis.
	nSrc := ownedAxisCount(sh, src, p, i)
	nDst := ownedAxisCount(sh, dst, p, j)
	if nSrc == 0 || nDst == 0 {
		return 0
	}
	third := sh.Len() / sh.Extent(src.Dim) / sh.Extent(dst.Dim)
	return nSrc * nDst * third
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
