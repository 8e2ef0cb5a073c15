package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func laShape() Shape { return Shape{Species: 35, Layers: 5, Cells: 700} }

func TestShapeIndexBijective(t *testing.T) {
	sh := Shape{Species: 3, Layers: 4, Cells: 5}
	seen := make(map[int]bool, sh.Len())
	for c := 0; c < sh.Cells; c++ {
		for l := 0; l < sh.Layers; l++ {
			for s := 0; s < sh.Species; s++ {
				idx := sh.Index(s, l, c)
				if idx < 0 || idx >= sh.Len() {
					t.Fatalf("Index(%d,%d,%d) = %d out of range [0,%d)", s, l, c, idx, sh.Len())
				}
				if seen[idx] {
					t.Fatalf("Index(%d,%d,%d) = %d collides", s, l, c, idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != sh.Len() {
		t.Fatalf("covered %d of %d indices", len(seen), sh.Len())
	}
}

func TestShapeExtent(t *testing.T) {
	sh := laShape()
	if got := sh.Extent(AxisSpecies); got != 35 {
		t.Errorf("Extent(species) = %d, want 35", got)
	}
	if got := sh.Extent(AxisLayers); got != 5 {
		t.Errorf("Extent(layers) = %d, want 5", got)
	}
	if got := sh.Extent(AxisCells); got != 700 {
		t.Errorf("Extent(cells) = %d, want 700", got)
	}
	if got := sh.Bytes(8); got != 35*5*700*8 {
		t.Errorf("Bytes(8) = %d, want %d", got, 35*5*700*8)
	}
}

func TestShapeValid(t *testing.T) {
	if !laShape().Valid() {
		t.Error("LA shape should be valid")
	}
	bad := []Shape{{0, 5, 700}, {35, 0, 700}, {35, 5, 0}, {-1, 5, 700}}
	for _, sh := range bad {
		if sh.Valid() {
			t.Errorf("%v should be invalid", sh)
		}
	}
}

func TestBlockOwnerPartition(t *testing.T) {
	// Block ownership must partition [0,n) exactly for any p.
	for _, n := range []int{1, 2, 5, 7, 35, 700, 3328} {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 16, 64, 128, 700, 1000} {
			covered := 0
			prevHi := 0
			for node := 0; node < p; node++ {
				iv := BlockOwner(n, p, node)
				if iv.Lo < prevHi {
					t.Fatalf("n=%d p=%d node=%d: interval %v overlaps previous", n, p, node, iv)
				}
				if iv.Len() > 0 && iv.Lo != prevHi {
					t.Fatalf("n=%d p=%d node=%d: gap before %v", n, p, node, iv)
				}
				if iv.Len() > 0 {
					prevHi = iv.Hi
				}
				covered += iv.Len()
			}
			if covered != n {
				t.Fatalf("n=%d p=%d: covered %d indices", n, p, covered)
			}
		}
	}
}

func TestBlockOwnerOfConsistent(t *testing.T) {
	for _, n := range []int{5, 35, 700} {
		for _, p := range []int{1, 3, 4, 5, 8, 128} {
			for i := 0; i < n; i++ {
				owner := BlockOwnerOf(n, p, i)
				if !BlockOwner(n, p, owner).Contains(i) {
					t.Fatalf("n=%d p=%d i=%d: owner %d does not contain i", n, p, i, owner)
				}
			}
		}
	}
}

func TestCyclicCount(t *testing.T) {
	for _, n := range []int{1, 5, 7, 700} {
		for _, p := range []int{1, 2, 3, 5, 8, 701} {
			total := 0
			for node := 0; node < p; node++ {
				c := CyclicCount(n, p, node)
				if c != len(OwnedIndices(Shape{1, 1, n}, Dist{Cyclic, AxisCells}, p, node)) {
					t.Fatalf("n=%d p=%d node=%d: CyclicCount=%d disagrees with OwnedIndices", n, p, node, c)
				}
				total += c
			}
			if total != n {
				t.Fatalf("n=%d p=%d: cyclic counts sum to %d", n, p, total)
			}
		}
	}
}

func TestOwnedCountSums(t *testing.T) {
	sh := laShape()
	dists := []Dist{DTrans, DChem, {Cyclic, AxisCells}, {Cyclic, AxisLayers}, {Block, AxisSpecies}}
	for _, d := range dists {
		for _, p := range []int{1, 2, 4, 5, 8, 16, 128} {
			total := 0
			for node := 0; node < p; node++ {
				total += OwnedCount(sh, d, p, node)
			}
			if total != sh.Len() {
				t.Errorf("%v p=%d: owned counts sum to %d, want %d", d, p, total, sh.Len())
			}
		}
	}
	// Replicated: every node owns everything.
	for _, p := range []int{1, 4, 16} {
		for node := 0; node < p; node++ {
			if got := OwnedCount(sh, DRepl, p, node); got != sh.Len() {
				t.Errorf("replicated p=%d node=%d: owned %d, want %d", p, node, got, sh.Len())
			}
		}
	}
}

// The largest share of an axis any node owns under BLOCK is
// BlockSize(n, p)/n.
func TestMaxOwnedShare(t *testing.T) {
	// LA: layers=5. P=4 -> ceil(5/4)=2 -> 2/5. P>=5 -> 1/5.
	share := func(p int) float64 { return float64(BlockSize(5, p)) / 5 }
	if got := share(4); math.Abs(got-0.4) > 1e-15 {
		t.Errorf("share(DTrans, 4) = %g, want 0.4", got)
	}
	for _, p := range []int{5, 8, 128} {
		if got := share(p); math.Abs(got-0.2) > 1e-15 {
			t.Errorf("share(DTrans, %d) = %g, want 0.2", p, got)
		}
	}
	// ceil(n/p) is ceil(n/min(n,p)), the paper's form, for n, p >= 1.
	for n := 1; n <= 40; n++ {
		for p := 1; p <= 50; p++ {
			m := p
			if n < m {
				m = n
			}
			if got, want := BlockSize(n, p), (n+m-1)/m; got != want {
				t.Errorf("BlockSize(%d, %d) = %d, want ceil(n/min(n,p)) = %d", n, p, got, want)
			}
		}
	}
}

func TestDistString(t *testing.T) {
	cases := []struct {
		d    Dist
		want string
	}{
		{DRepl, "A(*,*,*)"},
		{DTrans, "A(*,BLOCK,*)"},
		{DChem, "A(*,*,BLOCK)"},
		{Dist{Cyclic, AxisCells}, "A(*,*,CYCLIC)"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// The plan's per-node traffic must conserve bytes: total sent == total
// received, for every distribution pair.
func TestPlanConservation(t *testing.T) {
	sh := Shape{Species: 7, Layers: 5, Cells: 30}
	dists := []Dist{DRepl, DTrans, DChem, {Cyclic, AxisCells}, {Cyclic, AxisLayers}, {Block, AxisSpecies}}
	for _, src := range dists {
		for _, dst := range dists {
			for _, p := range []int{1, 2, 3, 5, 8, 16} {
				pl, err := NewPlan(sh, src, dst, p, 8)
				if err != nil {
					t.Fatalf("NewPlan(%v,%v,p=%d): %v", src, dst, p, err)
				}
				var sent, recv int64
				var ms, mr int
				for _, tr := range pl.Traffic {
					sent += tr.BytesSent
					recv += tr.BytesRecv
					ms += tr.MsgsSent
					mr += tr.MsgsRecv
				}
				if sent != recv {
					t.Errorf("%v->%v p=%d: sent %d != recv %d", src, dst, p, sent, recv)
				}
				if ms != mr {
					t.Errorf("%v->%v p=%d: msgs sent %d != recv %d", src, dst, p, ms, mr)
				}
			}
		}
	}
}

// pairwiseTraffic is the reference planner NewPlan's closed forms must
// reproduce: it visits every (sender, receiver) pair, intersects the
// indices the sender owns under src with those the receiver owns under
// dst, and books a non-empty overlap as one message (or a local copy when
// the two nodes are the same).
func pairwiseTraffic(sh Shape, src, dst Dist, p, wordSize int) []NodeTraffic {
	tr := make([]NodeTraffic, p)
	if src == dst {
		return tr
	}
	srcIdx := make([][]int, p)
	dstIdx := make([][]int, p)
	for n := 0; n < p; n++ {
		srcIdx[n] = OwnedIndices(sh, src, p, n)
		dstIdx[n] = OwnedIndices(sh, dst, p, n)
	}
	w := int64(wordSize)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			var elems int
			switch {
			case src.Kind == Replicated:
				if i == j {
					elems = OwnedCount(sh, dst, p, j)
				}
			case dst.Kind == Replicated:
				elems = OwnedCount(sh, src, p, i)
			case src.Dim == dst.Dim:
				elems = intersectSorted(srcIdx[i], dstIdx[j]) * (sh.Len() / sh.Extent(src.Dim))
			default:
				third := sh.Len() / sh.Extent(src.Dim) / sh.Extent(dst.Dim)
				elems = len(srcIdx[i]) * len(dstIdx[j]) * third
			}
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
	return tr
}

// intersectSorted counts the values two increasing index lists share.
func intersectSorted(a, b []int) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			n++
			a, b = a[1:], b[1:]
		}
	}
	return n
}

// NewPlan's per-node traffic must equal the pairwise enumeration exactly,
// for the paper's shapes and for shapes with extents below p, over every
// pair of distributions the tests use and p = 1..140.
func TestPlanTrafficMatchesPairwise(t *testing.T) {
	shapes := []Shape{
		laShape(),
		{Species: 35, Layers: 5, Cells: 3328}, // NE
		{Species: 7, Layers: 5, Cells: 30},
		{Species: 3, Layers: 2, Cells: 5},
		{Species: 1, Layers: 1, Cells: 1},
	}
	dists := []Dist{DRepl, DTrans, DChem, {Cyclic, AxisCells}, {Cyclic, AxisLayers}, {Block, AxisSpecies}, {Cyclic, AxisSpecies}}
	for _, sh := range shapes {
		t.Run(sh.String(), func(t *testing.T) {
			t.Parallel()
			for _, src := range dists {
				for _, dst := range dists {
					for p := 1; p <= 140; p++ {
						pl, err := NewPlan(sh, src, dst, p, 8)
						if err != nil {
							t.Fatalf("NewPlan(%v->%v, p=%d): %v", src, dst, p, err)
						}
						want := pairwiseTraffic(sh, src, dst, p, 8)
						for n := range want {
							if pl.Traffic[n] != want[n] {
								t.Fatalf("%v->%v p=%d node %d: traffic %+v, pairwise %+v",
									src, dst, p, n, pl.Traffic[n], want[n])
							}
						}
					}
				}
			}
		})
	}
}

// Every element destined for a node must arrive: for partitioned->partitioned
// plans, the bytes received by node j plus its local copies must equal its
// owned volume under dst, for elements that exist under src... which is all
// of them, so: recv_j + copied_j == owned_j(dst) * W when src covers the
// array exactly once (Block/Cyclic, not Replicated).
func TestPlanCoverage(t *testing.T) {
	sh := Shape{Species: 7, Layers: 5, Cells: 30}
	parts := []Dist{DTrans, DChem, {Cyclic, AxisCells}, {Cyclic, AxisLayers}, {Block, AxisSpecies}}
	for _, src := range parts {
		for _, dst := range parts {
			for _, p := range []int{1, 2, 3, 5, 8, 16} {
				pl, err := NewPlan(sh, src, dst, p, 8)
				if err != nil {
					t.Fatalf("NewPlan: %v", err)
				}
				if src == dst {
					continue // identity: nothing moves, nothing to check
				}
				for j := 0; j < p; j++ {
					got := pl.Traffic[j].BytesRecv + pl.Traffic[j].BytesCopied
					want := int64(OwnedCount(sh, dst, p, j)) * 8
					if got != want {
						t.Errorf("%v->%v p=%d node %d: recv+copied = %d, want %d",
							src, dst, p, j, got, want)
					}
				}
			}
		}
	}
}

// TestPaperFormula_DReplToDTrans checks the plan against the paper's closed
// form: Ct = H * ceil(layers/min(layers,P)) * species * cells * W.
func TestPaperFormula_DReplToDTrans(t *testing.T) {
	sh := laShape()
	prof := testProfile()
	for _, p := range []int{4, 8, 16, 32, 64, 128} {
		pl, err := NewPlan(sh, DRepl, DTrans, p, prof.WordSize)
		if err != nil {
			t.Fatal(err)
		}
		if n := pl.TotalMessages(); n != 0 {
			t.Errorf("p=%d: D_Repl->D_Trans should move no messages, got %d", p, n)
		}
		minLP := min(sh.Layers, p)
		ceil := (sh.Layers + minLP - 1) / minLP
		want := prof.CopySec * float64(ceil*sh.Species*sh.Cells*prof.WordSize)
		got := pl.MaxCost(prof)
		if relErr(got, want) > 1e-12 {
			t.Errorf("p=%d: max cost %.9g, paper formula %.9g", p, got, want)
		}
	}
}

// TestPaperFormula_DTransToDChem checks against
// Ct = L*P + G*ceil(layers/min(layers,P))*species*cells*W (paper, exact up
// to the paper's own approximations: our plan counts P-1 sends plus the
// sender's receives and subtracts the locally kept part, so we verify the
// plan lies within a small band of the formula).
func TestPaperFormula_DTransToDChem(t *testing.T) {
	sh := laShape()
	prof := testProfile()
	for _, p := range []int{4, 8, 16, 32, 64, 128} {
		pl, err := NewPlan(sh, DTrans, DChem, p, prof.WordSize)
		if err != nil {
			t.Fatal(err)
		}
		minLP := min(sh.Layers, p)
		ceil := (sh.Layers + minLP - 1) / minLP
		paper := prof.LatencySec*float64(p) + prof.ByteSec*float64(ceil*sh.Species*sh.Cells*prof.WordSize)
		got := pl.MaxCost(prof)
		if got > paper*1.15 || got < paper*0.80 {
			t.Errorf("p=%d: max cost %.9g not within band of paper formula %.9g", p, got, paper)
		}
	}
}

// TestPaperFormula_DChemToDRepl checks against
// Ct = 2*L*P + G*layers*species*cells*W.
func TestPaperFormula_DChemToDRepl(t *testing.T) {
	sh := laShape()
	prof := testProfile()
	for _, p := range []int{4, 8, 16, 32, 64, 128} {
		pl, err := NewPlan(sh, DChem, DRepl, p, prof.WordSize)
		if err != nil {
			t.Fatal(err)
		}
		paper := 2*prof.LatencySec*float64(p) + prof.ByteSec*float64(sh.Layers*sh.Species*sh.Cells*prof.WordSize)
		got := pl.MaxCost(prof)
		if got > paper*1.10 || got < paper*0.85 {
			t.Errorf("p=%d: max cost %.9g not within band of paper formula %.9g", p, got, paper)
		}
	}
}

// Identity redistribution must be free.
func TestPlanIdentity(t *testing.T) {
	sh := laShape()
	for _, d := range []Dist{DRepl, DTrans, DChem} {
		pl, err := NewPlan(sh, d, d, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		if pl.TotalMessages() != 0 || pl.TotalBytesMoved() != 0 || pl.TotalBytesCopied() != 0 {
			t.Errorf("identity %v: plan not free: %v", d, pl)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	sh := laShape()
	if _, err := NewPlan(Shape{}, DRepl, DTrans, 4, 8); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := NewPlan(sh, DRepl, DTrans, 0, 8); err == nil {
		t.Error("zero node count accepted")
	}
	if _, err := NewPlan(sh, DRepl, DTrans, 4, 0); err == nil {
		t.Error("zero word size accepted")
	}
}

// Property: for random shapes and node counts, plan coverage holds for the
// Airshed distribution cycle.
func TestPlanCoverageQuick(t *testing.T) {
	f := func(sp, la, ce, pp uint8) bool {
		sh := Shape{Species: int(sp%20) + 1, Layers: int(la%8) + 1, Cells: int(ce%50) + 1}
		p := int(pp) + 1
		seqs := [][2]Dist{{DTrans, DChem}, {DChem, DRepl}, {DRepl, DTrans}}
		for _, s := range seqs {
			pl, err := NewPlan(sh, s[0], s[1], p, 8)
			if err != nil {
				return false
			}
			var sent, recv int64
			for _, tr := range pl.Traffic {
				sent += tr.BytesSent
				recv += tr.BytesRecv
			}
			if sent != recv {
				return false
			}
			if s[1].Kind != Replicated && s[0].Kind != Replicated {
				for j := 0; j < p; j++ {
					got := pl.Traffic[j].BytesRecv + pl.Traffic[j].BytesCopied
					want := int64(OwnedCount(sh, s[1], p, j)) * 8
					if got != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The cells dimension scaling: the NE data set (3328 cells) must produce
// proportionally larger transfer volumes than LA (700 cells) for the
// all-gather.
func TestPlanScalesWithCells(t *testing.T) {
	la := laShape()
	ne := Shape{Species: 35, Layers: 5, Cells: 3328}
	p := 16
	plLA, err := NewPlan(la, DChem, DRepl, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	plNE, err := NewPlan(ne, DChem, DRepl, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(plNE.TotalBytesMoved()) / float64(plLA.TotalBytesMoved())
	want := float64(ne.Cells) / float64(la.Cells)
	if math.Abs(ratio-want)/want > 0.05 {
		t.Errorf("NE/LA byte ratio = %.3f, want ~%.3f", ratio, want)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
