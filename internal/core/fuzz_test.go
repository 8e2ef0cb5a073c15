package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"testing"

	"airshed/internal/machine"
	"airshed/internal/vm"
)

// gzipGob encodes tr the way SaveTrace does, without validating it, at
// the given gzip level.
func gzipGob(t testing.TB, tr *Trace, level int) []byte {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(zw).Encode(tr); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadTrace writes arbitrary bytes to a file and loads it as a trace.
// LoadTrace may not panic, and any trace it accepts must replay, in both
// modes, to a finite, non-negative ledger. The stored-block seeds
// (gzip level 0) expose the gob bytes to the mutator directly; besides
// the synthetic trace they hold two of the replay oracle's generated
// traces.
func FuzzLoadTrace(f *testing.F) {
	good := syntheticTrace()
	bad := syntheticTrace()
	bad.Hours[0].Steps[0].CellFlops[1] = math.NaN()
	gen1, _, _ := oracleCase(1)
	gen2, _, _ := oracleCase(2)
	for _, tr := range []*Trace{good, bad, gen1, gen2} {
		for _, level := range []int{gzip.NoCompression, gzip.DefaultCompression} {
			data := gzipGob(f, tr, level)
			f.Add(data)
			f.Add(data[:len(data)/2]) // torn tail
		}
	}
	f.Add([]byte("not a trace"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := LoadTrace(path)
		if err != nil {
			return
		}
		for _, mode := range []Mode{DataParallel, TaskParallel} {
			rr, err := Replay(tr, machine.IntelParagon(), 4, mode)
			if err != nil {
				t.Fatalf("%v: accepted trace does not replay: %v", mode, err)
			}
			finite := func(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }
			if !finite(rr.Ledger.Total) {
				t.Fatalf("%v: ledger total %g", mode, rr.Ledger.Total)
			}
			for _, cat := range vm.Categories() {
				if v := rr.Ledger.ByCat[cat]; !finite(v) {
					t.Fatalf("%v: ledger %v %g", mode, cat, v)
				}
			}
		}
	})
}
