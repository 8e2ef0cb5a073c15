// Package grid implements the multiscale horizontal grid of the Airshed
// model. Airshed is a multiscale-grid version of the CIT airshed model: the
// modelled region is covered by coarse cells that are recursively refined
// (quadtree, 2:1 balanced) over areas of high interest such as city cores,
// so that the expensive chemistry operator is evaluated at far fewer points
// than a uniform grid of the same resolution would need.
//
// The horizontal grid nodes of the paper (the third dimension of
// A(species, layers, nodes), 700 for the Los Angeles basin and 3328 for the
// North-East US data set) correspond to the leaf cells of this quadtree;
// concentrations are carried at cell centres. The package also builds
// uniform grids, which serve as the baseline for the 1-D transport
// comparison discussed in the paper.
package grid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Side enumerates the four faces of a cell.
type Side int

// Faces in the order West, East, South, North.
const (
	West Side = iota
	East
	South
	North
)

// Opposite returns the facing side.
func (s Side) Opposite() Side {
	switch s {
	case West:
		return East
	case East:
		return West
	case South:
		return North
	case North:
		return South
	default:
		panic(fmt.Sprintf("grid: bad side %d", int(s)))
	}
}

// String returns the compass name of the side.
func (s Side) String() string {
	return [...]string{"west", "east", "south", "north"}[s]
}

// Sides lists all four sides.
func Sides() []Side { return []Side{West, East, South, North} }

// key identifies a cell position in the refinement hierarchy.
type key struct {
	level  int
	ix, iy int
}

// Cell is one leaf cell of the multiscale grid. Concentrations live at the
// cell centre (X, Y).
type Cell struct {
	// Level is the refinement level: 0 for a coarse base cell, each
	// increment halves the cell side.
	Level int
	// IX, IY index the cell within its level's virtual uniform grid.
	IX, IY int
	// X, Y is the cell centre in domain coordinates.
	X, Y float64
	// Size is the side length of the (square) cell.
	Size float64
}

// Area returns the horizontal area of the cell.
func (c *Cell) Area() float64 { return c.Size * c.Size }

// Face is one interior face between two leaf cells, carrying the geometric
// quantities the transport operator needs.
type Face struct {
	// A, B are leaf indices of the adjacent cells; the face normal
	// points from A to B.
	A, B int
	// Length is the shared edge length: min of the two cell sides.
	Length float64
	// Dist is the distance between the two cell centres.
	Dist float64
	// NX, NY is the unit normal from A to B.
	NX, NY float64
}

// BoundaryFace is a face of a leaf cell on the domain boundary.
type BoundaryFace struct {
	Cell   int
	Side   Side
	Length float64
	// NX, NY is the outward unit normal.
	NX, NY float64
}

// Grid is a 2:1-balanced multiscale quadtree grid over a rectangular
// domain. Construct with New, refine with Refine/RefineNear, then call
// Finalize before use.
type Grid struct {
	// W, H is the domain extent; the origin is (0,0).
	W, H float64
	// NX0, NY0 is the base (level 0) cell count per axis.
	NX0, NY0 int
	// S0 is the base cell size (cells are square: W/NX0 == H/NY0).
	S0 float64

	leaves map[key]bool

	// Populated by Finalize:
	Cells    []Cell
	Faces    []Face
	Boundary []BoundaryFace
	// CellFaces[i] lists indices into Faces touching cell i.
	CellFaces [][]int
	index     map[key]int
	finalized bool
	maxLevel  int
}

// New creates a grid of nx by ny square base cells over a w x h domain.
// w/nx must equal h/ny (square cells).
func New(w, h float64, nx, ny int) (*Grid, error) {
	if w <= 0 || h <= 0 || nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("grid: invalid domain %gx%g with %dx%d cells", w, h, nx, ny)
	}
	sx, sy := w/float64(nx), h/float64(ny)
	if math.Abs(sx-sy) > 1e-9*sx {
		return nil, fmt.Errorf("grid: cells must be square: %g x %g", sx, sy)
	}
	g := &Grid{W: w, H: h, NX0: nx, NY0: ny, S0: sx, leaves: make(map[key]bool)}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			g.leaves[key{0, ix, iy}] = true
		}
	}
	return g, nil
}

// cellSize returns the side length at a level.
func (g *Grid) cellSize(level int) float64 {
	return g.S0 / float64(int(1)<<uint(level))
}

// cellCenter returns the centre of cell (level, ix, iy).
func (g *Grid) cellCenter(k key) (x, y float64) {
	s := g.cellSize(k.level)
	return (float64(k.ix) + 0.5) * s, (float64(k.iy) + 0.5) * s
}

// levelExtent returns the virtual uniform grid dimensions at a level.
func (g *Grid) levelExtent(level int) (nx, ny int) {
	f := int(1) << uint(level)
	return g.NX0 * f, g.NY0 * f
}

// refineLeaf splits one leaf into its four children, recursively refining
// coarser neighbours first to preserve the 2:1 balance.
func (g *Grid) refineLeaf(k key) {
	if !g.leaves[k] {
		return
	}
	// Enforce 2:1: any face neighbour coarser than k.level must be
	// refined before k is split (so children never face a cell two
	// levels coarser).
	if k.level > 0 {
		parents := []key{
			{k.level - 1, k.ix/2 - 1, k.iy / 2},
			{k.level - 1, k.ix/2 + 1, k.iy / 2},
			{k.level - 1, k.ix / 2, k.iy/2 - 1},
			{k.level - 1, k.ix / 2, k.iy/2 + 1},
		}
		for _, p := range parents {
			if g.inLevel(p) && g.leaves[p] {
				g.refineLeaf(p)
			}
		}
	}
	delete(g.leaves, k)
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			g.leaves[key{k.level + 1, 2*k.ix + dx, 2*k.iy + dy}] = true
		}
	}
	if k.level+1 > g.maxLevel {
		g.maxLevel = k.level + 1
	}
	g.finalized = false
}

// inLevel reports whether the key lies inside the domain at its level.
func (g *Grid) inLevel(k key) bool {
	nx, ny := g.levelExtent(k.level)
	return k.ix >= 0 && k.iy >= 0 && k.ix < nx && k.iy < ny
}

// Rect is an axis-aligned rectangle in domain coordinates.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Contains reports whether (x, y) lies in the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Refine splits every leaf whose centre lies inside rect and whose level is
// below maxLevel, repeating until no such leaf remains. It returns the
// number of split operations performed.
func (g *Grid) Refine(rect Rect, maxLevel int) int {
	splits := 0
	for {
		var todo []key
		for k := range g.leaves {
			if k.level >= maxLevel {
				continue
			}
			x, y := g.cellCenter(k)
			if rect.Contains(x, y) {
				todo = append(todo, k)
			}
		}
		if len(todo) == 0 {
			return splits
		}
		sortKeys(todo)
		for _, k := range todo {
			if g.leaves[k] {
				g.refineLeaf(k)
				splits++
			}
		}
	}
}

// RefineNear refines, one leaf at a time, the leaf closest to (cx, cy),
// until the total leaf count reaches target. Only "safe" leaves — those
// below maxLevel with no coarser face neighbour — are split, so every split
// adds exactly 3 leaves and no 2:1 balance cascade occurs; target must
// therefore satisfy target ≡ NumCells() (mod 3). Deterministic: ties break
// on (level, iy, ix). It panics if the target is unreachable.
func (g *Grid) RefineNear(cx, cy float64, maxLevel, target int) {
	if target < len(g.leaves) {
		panic(fmt.Sprintf("grid: RefineNear target %d below current %d leaves", target, len(g.leaves)))
	}
	if (target-len(g.leaves))%3 != 0 {
		panic(fmt.Sprintf("grid: RefineNear target %d unreachable from %d leaves (must differ by a multiple of 3)",
			target, len(g.leaves)))
	}
	for len(g.leaves) < target {
		best := key{-1, 0, 0}
		bestD := math.Inf(1)
		for k := range g.leaves {
			if k.level >= maxLevel || !g.safeToSplit(k) {
				continue
			}
			x, y := g.cellCenter(k)
			d := (x-cx)*(x-cx) + (y-cy)*(y-cy)
			if d < bestD-1e-12 || (math.Abs(d-bestD) <= 1e-12 && keyLess(k, best)) {
				best, bestD = k, d
			}
		}
		if best.level < 0 {
			panic(fmt.Sprintf("grid: RefineNear cannot reach %d leaves (at %d, maxLevel %d)",
				target, len(g.leaves), maxLevel))
		}
		before := len(g.leaves)
		g.refineLeaf(best)
		if len(g.leaves) != before+3 {
			panic("grid: safe split did not add exactly 3 leaves")
		}
	}
}

// safeToSplit reports whether splitting k triggers no balance cascade: no
// face neighbour of k is a coarser leaf.
func (g *Grid) safeToSplit(k key) bool {
	if k.level == 0 {
		return true
	}
	parents := []key{
		{k.level - 1, k.ix/2 - 1, k.iy / 2},
		{k.level - 1, k.ix/2 + 1, k.iy / 2},
		{k.level - 1, k.ix / 2, k.iy/2 - 1},
		{k.level - 1, k.ix / 2, k.iy/2 + 1},
	}
	for _, p := range parents {
		if g.inLevel(p) && g.leaves[p] {
			return false
		}
	}
	return true
}

// compareKeys orders keys by level, then row, then column.
func compareKeys(a, b key) int {
	if c := cmp.Compare(a.level, b.level); c != 0 {
		return c
	}
	if c := cmp.Compare(a.iy, b.iy); c != 0 {
		return c
	}
	return cmp.Compare(a.ix, b.ix)
}

// keyLess reports whether a orders before b; every key orders before a
// negative-level sentinel.
func keyLess(a, b key) bool {
	return b.level < 0 || compareKeys(a, b) < 0
}

func sortKeys(ks []key) {
	slices.SortFunc(ks, compareKeys)
}

// NumCells returns the current leaf count (valid before Finalize too).
func (g *Grid) NumCells() int {
	if g.finalized {
		return len(g.Cells)
	}
	return len(g.leaves)
}

// MaxLevel returns the deepest refinement level present.
func (g *Grid) MaxLevel() int { return g.maxLevel }

// Finalize freezes the grid: assigns deterministic leaf indices (sorted by
// level, then row, then column), builds the face list and the boundary face
// list, and validates the 2:1 balance. It is idempotent.
func (g *Grid) Finalize() error {
	if g.finalized {
		return nil
	}
	keys := make([]key, 0, len(g.leaves))
	for k := range g.leaves {
		keys = append(keys, k)
	}
	sortKeys(keys)

	g.Cells = make([]Cell, len(keys))
	g.index = make(map[key]int, len(keys))
	for i, k := range keys {
		x, y := g.cellCenter(k)
		g.Cells[i] = Cell{Level: k.level, IX: k.ix, IY: k.iy, X: x, Y: y, Size: g.cellSize(k.level)}
		g.index[k] = i
	}

	g.Faces = g.Faces[:0]
	g.Boundary = g.Boundary[:0]
	for i, k := range keys {
		for _, side := range Sides() {
			nbrs, boundary := g.sideNeighbors(k, side)
			if boundary {
				nx, ny := sideNormal(side)
				g.Boundary = append(g.Boundary, BoundaryFace{
					Cell: i, Side: side, Length: g.Cells[i].Size, NX: nx, NY: ny,
				})
				continue
			}
			if len(nbrs) == 0 {
				return fmt.Errorf("grid: cell %v side %v has no neighbour and is not on the boundary (2:1 violation?)", k, side)
			}
			for _, nk := range nbrs {
				j, ok := g.index[nk]
				if !ok {
					return fmt.Errorf("grid: neighbour %v of %v is not a leaf", nk, k)
				}
				if dl := abs(g.Cells[i].Level - g.Cells[j].Level); dl > 1 {
					return fmt.Errorf("grid: 2:1 balance violated between %v and %v", k, nk)
				}
				// Each interior face is emitted once, by its
				// lower-indexed cell, so A < B and the normal
				// points out of A.
				if j < i {
					continue
				}
				nx, ny := sideNormal(side)
				ca, cb := &g.Cells[i], &g.Cells[j]
				length := math.Min(ca.Size, cb.Size)
				dx, dy := cb.X-ca.X, cb.Y-ca.Y
				g.Faces = append(g.Faces, Face{
					A: i, B: j, Length: length,
					Dist: math.Hypot(dx, dy),
					NX:   nx, NY: ny,
				})
			}
		}
	}
	// Deterministic face order.
	slices.SortFunc(g.Faces, func(a, b Face) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
	g.CellFaces = make([][]int, len(g.Cells))
	for fi, f := range g.Faces {
		g.CellFaces[f.A] = append(g.CellFaces[f.A], fi)
		g.CellFaces[f.B] = append(g.CellFaces[f.B], fi)
	}
	if err := g.checkFaceCoverage(); err != nil {
		return err
	}
	g.finalized = true
	return nil
}

// checkFaceCoverage verifies that every cell's perimeter is exactly tiled
// by its interior and boundary faces: the total face length attached to a
// cell must equal 4 times its side. This catches hanging-node bookkeeping
// bugs that the pairwise 2:1 check cannot see.
func (g *Grid) checkFaceCoverage() error {
	per := make([]float64, len(g.Cells))
	for _, f := range g.Faces {
		per[f.A] += f.Length
		per[f.B] += f.Length
	}
	for _, bf := range g.Boundary {
		per[bf.Cell] += bf.Length
	}
	for i := range g.Cells {
		want := 4 * g.Cells[i].Size
		if math.Abs(per[i]-want) > 1e-9*want {
			return fmt.Errorf("grid: cell %d perimeter covered %g of %g", i, per[i], want)
		}
	}
	return nil
}

// sideNeighbors returns the leaf keys adjacent to k across side, or
// boundary=true when the side lies on the domain boundary.
func (g *Grid) sideNeighbors(k key, side Side) (nbrs []key, boundary bool) {
	dx, dy := sideDelta(side)
	same := key{k.level, k.ix + dx, k.iy + dy}
	if !g.inLevel(same) {
		return nil, true
	}
	if g.leaves[same] {
		return []key{same}, false
	}
	// Finer neighbours: the two children of `same` that touch our side.
	var fine []key
	for _, c := range childrenTouching(same, side.Opposite()) {
		if g.leaves[c] {
			fine = append(fine, c)
		}
	}
	if len(fine) > 0 {
		return fine, false
	}
	// Coarser neighbour.
	if k.level > 0 {
		coarse := key{k.level - 1, same.ix >> 1, same.iy >> 1}
		if g.leaves[coarse] {
			return []key{coarse}, false
		}
	}
	return nil, false
}

// childrenTouching returns the two children of parent that lie along the
// given side of the parent.
func childrenTouching(parent key, side Side) []key {
	l, x, y := parent.level+1, 2*parent.ix, 2*parent.iy
	switch side {
	case West:
		return []key{{l, x, y}, {l, x, y + 1}}
	case East:
		return []key{{l, x + 1, y}, {l, x + 1, y + 1}}
	case South:
		return []key{{l, x, y}, {l, x + 1, y}}
	case North:
		return []key{{l, x, y + 1}, {l, x + 1, y + 1}}
	default:
		panic("grid: bad side")
	}
}

func sideDelta(s Side) (dx, dy int) {
	switch s {
	case West:
		return -1, 0
	case East:
		return 1, 0
	case South:
		return 0, -1
	case North:
		return 0, 1
	default:
		panic("grid: bad side")
	}
}

func sideNormal(s Side) (nx, ny float64) {
	switch s {
	case West:
		return -1, 0
	case East:
		return 1, 0
	case South:
		return 0, -1
	case North:
		return 0, 1
	default:
		panic("grid: bad side")
	}
}

// Uniform builds a finalized uniform nx x ny grid: the baseline for the
// paper's 1-D transport comparison.
func Uniform(w, h float64, nx, ny int) (*Grid, error) {
	g, err := New(w, h, nx, ny)
	if err != nil {
		return nil, err
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return g, nil
}

// FindCell returns the index of the leaf containing (x, y), or -1 if the
// point is outside the domain. The grid must be finalized.
func (g *Grid) FindCell(x, y float64) int {
	if !g.finalized {
		panic("grid: FindCell before Finalize")
	}
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return -1
	}
	for level := g.maxLevel; level >= 0; level-- {
		s := g.cellSize(level)
		k := key{level, int(x / s), int(y / s)}
		if i, ok := g.index[k]; ok {
			return i
		}
	}
	return -1
}

// TotalArea returns the summed area of all leaves (equals W*H for a valid
// grid).
func (g *Grid) TotalArea() float64 {
	total := 0.0
	for i := range g.Cells {
		total += g.Cells[i].Area()
	}
	return total
}

// Stats summarises the grid composition by level.
type Stats struct {
	Cells     int
	Faces     int
	Boundary  int
	ByLevel   map[int]int
	MaxLevel  int
	TotalArea float64
}

// Stats computes composition statistics. The grid must be finalized.
func (g *Grid) Stats() Stats {
	st := Stats{
		Cells:     len(g.Cells),
		Faces:     len(g.Faces),
		Boundary:  len(g.Boundary),
		ByLevel:   make(map[int]int),
		MaxLevel:  g.maxLevel,
		TotalArea: g.TotalArea(),
	}
	for i := range g.Cells {
		st.ByLevel[g.Cells[i].Level]++
	}
	return st
}

// String formats the stats.
func (st Stats) String() string {
	return fmt.Sprintf("%d cells (%d faces, %d boundary faces, max level %d)",
		st.Cells, st.Faces, st.Boundary, st.MaxLevel)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
