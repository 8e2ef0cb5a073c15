package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// faceDigest hashes the face lists Finalize builds: every interior face,
// every boundary face and each cell's face index list, in order, with
// floats by their bits.
func faceDigest(g *Grid) string {
	h := sha256.New()
	putInt := func(v int) { _ = binary.Write(h, binary.LittleEndian, int64(v)) }
	putF := func(v float64) { _ = binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	putInt(len(g.Faces))
	for _, f := range g.Faces {
		putInt(f.A)
		putInt(f.B)
		putF(f.Length)
		putF(f.Dist)
		putF(f.NX)
		putF(f.NY)
	}
	putInt(len(g.Boundary))
	for _, b := range g.Boundary {
		putInt(b.Cell)
		putInt(int(b.Side))
		putF(b.Length)
		putF(b.NX)
		putF(b.NY)
	}
	putInt(len(g.CellFaces))
	for _, cf := range g.CellFaces {
		putInt(len(cf))
		for _, fi := range cf {
			putInt(fi)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The face lists of the LA and NE data-set grids and of the uniform
// 80x80 grid are pinned bit for bit, so a change to how Finalize builds
// them cannot move a face, its orientation or its order.
func TestFinalizeFacesPinned(t *testing.T) {
	refined := func(w float64, n int, x, y float64, target int) *Grid {
		g := mustNew(t, w, w, n, n)
		g.RefineNear(x, y, 3, target)
		finalize(t, g)
		return g
	}
	uni, err := Uniform(200e3, 200e3, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Grid
		want string
	}{
		{"LA", refined(200e3, 10, 90e3, 100e3, 700), "d8d36a3461c643e04c9eec081f20bf31cdb62f0bb159fbb3a48345a148872d54"},
		{"NE", refined(1024e3, 16, 600e3, 420e3, 3328), "73e4868c0d20dea39d56667390588b07289f8660d0fa7735ae556b24673a1d07"},
		{"uniform80", uni, "8d92ebd3432c4d8309005bf90124c5b35bbcce4ca9dda1d174e5992ce00dbe5c"},
	} {
		if got := faceDigest(c.g); got != c.want {
			t.Errorf("%s grid faces hash to %s, pinned %s", c.name, got, c.want)
		}
	}
}
