package hourio

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"airshed/internal/meteo"
)

// headerOnly is the 52-byte prefix of an hour file whose header and
// first section claim ns×nl×ncells values, with none of them present:
// magic, the four-word header, a section tag and a section length.
func headerOnly(tag uint32, ns, nl, ncells, sectionLen uint64) []byte {
	b := []byte(Magic)
	for _, v := range []uint64{7, ns, nl, ncells} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, tag)
	return binary.LittleEndian.AppendUint64(b, sectionLen)
}

// oversized are header-only inputs claiming far more data than they hold:
// dimensions past the plausibility bounds, and in-bounds dimensions whose
// sections would be gigabytes.
func oversized() [][]byte {
	return [][]byte{
		headerOnly(secConc, 1, 1, 1<<27, 1<<27),
		headerOnly(secConc, 1, 1, 1<<40, 1<<40),
		headerOnly(secConc, 1<<16, 1<<10, 1<<24, 1<<50),
		headerOnly(secScalars, 1<<16, 1<<10, 1<<24, 2+2*(1<<10)-1+3*(1<<16)),
	}
}

// TestOversizedHeaderAllocatesLittle pins the decoders against headers
// from outside the program (restart files, checkpoint blobs): a file that
// claims more values than it holds fails, having allocated no more than
// the bytes it held plus one read chunk.
func TestOversizedHeaderAllocatesLittle(t *testing.T) {
	for i, data := range oversized() {
		if len(data) != 52 {
			t.Fatalf("input %d is %d bytes, want 52", i, len(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, _, _, _, serr := ReadSnapshot(bytes.NewReader(data))
		_, _, ierr := ReadHourInput(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if serr == nil || ierr == nil {
			t.Errorf("input %d accepted: snapshot %v, hour input %v", i, serr, ierr)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("input %d: decoders allocated %d bytes for a 52-byte input", i, d)
		}
	}
}

// FuzzHourio feeds arbitrary bytes to both decoders. Neither may panic,
// and whatever one accepts must re-encode to exactly the bytes it
// reports having consumed. The valid seeds are hand-sized (two species,
// two layers, three cells): a full synthetic hour is kilobytes, and the
// fuzzer spends its run minimising it.
func FuzzHourio(f *testing.F) {
	tiny := &meteo.HourInput{
		Hour: 9, Sun: 0.5, KH: 50,
		TempK: []float64{290, 285}, Kz: []float64{3},
		WindU: [][]float64{{1, 2, 3}, {4, 5, 6}}, WindV: [][]float64{{-1, 0, 1}, {2, 1, 0}},
		Emis: [][]float64{{0.1, 0.2, 0.3}, {0, 0, 1e-3}},
		VDep: []float64{0.01, 0.02}, VSettle: []float64{0, 1e-4}, Inflow: []float64{0.04, 0.001},
	}
	var in bytes.Buffer
	if _, err := WriteHourInput(&in, tiny); err != nil {
		f.Fatal(err)
	}
	conc := make([]float64, 2*3*4)
	for i := range conc {
		conc[i] = float64(i) * 0.125
	}
	var snap bytes.Buffer
	if _, err := WriteSnapshot(&snap, 9, 2, 3, 4, conc); err != nil {
		f.Fatal(err)
	}
	for _, good := range [][]byte{in.Bytes(), snap.Bytes()} {
		f.Add(good)
		f.Add(good[:len(good)-3]) // torn tail
	}
	for _, data := range oversized() {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if hour, ns, nl, ncells, conc, n, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if _, err := WriteSnapshot(&buf, hour, ns, nl, ncells, conc); err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data[:n]) {
				t.Fatalf("snapshot re-encodes to %d bytes differing from the %d consumed", buf.Len(), n)
			}
		}
		if in, n, err := ReadHourInput(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if _, err := WriteHourInput(&buf, in); err != nil {
				t.Fatalf("accepted hour input does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data[:n]) {
				t.Fatalf("hour input re-encodes to %d bytes differing from the %d consumed", buf.Len(), n)
			}
		}
	})
}
