// Package hourio implements the hourly input/output processing of the
// Airshed driver: the inputhour, pretrans and outputhour phases of the
// paper's Figure 1. Hour inputs (meteorology + emissions) and hour outputs
// (concentration snapshots) are serialised in a simple checksummed binary
// format. In the paper these phases are sequential and become the
// scalability bottleneck that Section 5's task parallelism removes; the
// byte volumes this package reports are what the virtual machine charges
// for them.
package hourio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"airshed/internal/meteo"
	"airshed/internal/resilience"
)

// Magic identifies Airshed hour files.
const Magic = "AIRSHD01"

// section tags inside an hour-input file.
const (
	secScalars = uint32(1)
	secWind    = uint32(2)
	secEmis    = uint32(3)
	secConc    = uint32(4)
)

// countingWriter tracks bytes written and maintains a CRC.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// WriteHourInput serialises an hour input. It returns the number of bytes
// written (the volume the I/O phase is charged for).
func WriteHourInput(w io.Writer, in *meteo.HourInput) (int64, error) {
	if err := resilience.Fire(resilience.PointHourWrite); err != nil {
		return 0, fmt.Errorf("hourio: %w", err)
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write([]byte(Magic)); err != nil {
		return cw.n, err
	}
	nl := len(in.TempK)
	ns := len(in.VDep)
	var ncells int
	if nl > 0 && len(in.WindU) == nl {
		ncells = len(in.WindU[0])
	}
	hdr := []uint64{uint64(in.Hour), uint64(ns), uint64(nl), uint64(ncells)}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	writeF64s := func(tag uint32, data []float64) error {
		if err := binary.Write(cw, binary.LittleEndian, tag); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint64(len(data))); err != nil {
			return err
		}
		return binary.Write(cw, binary.LittleEndian, data)
	}
	scalars := append([]float64{in.Sun, in.KH}, in.TempK...)
	scalars = append(scalars, in.Kz...)
	scalars = append(scalars, in.VDep...)
	scalars = append(scalars, in.Inflow...)
	if in.VSettle != nil {
		scalars = append(scalars, in.VSettle...)
	} else {
		scalars = append(scalars, make([]float64, ns)...)
	}
	if err := writeF64s(secScalars, scalars); err != nil {
		return cw.n, err
	}
	for l := 0; l < nl; l++ {
		if err := writeF64s(secWind, in.WindU[l]); err != nil {
			return cw.n, err
		}
		if err := writeF64s(secWind, in.WindV[l]); err != nil {
			return cw.n, err
		}
	}
	for s := 0; s < ns; s++ {
		if err := writeF64s(secEmis, in.Emis[s]); err != nil {
			return cw.n, err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, cw.crc); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// countingReader tracks bytes read and maintains a CRC.
type countingReader struct {
	r   io.Reader
	n   int64
	crc uint32
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// checkDims rejects header dimensions no Airshed data set has. The
// bounds also keep ns*nl*ncells below 2^50, so the product cannot
// overflow.
func checkDims(ns, nl, ncells uint64) error {
	if ns == 0 || ns > 1<<16 || nl == 0 || nl > 1<<10 || ncells == 0 || ncells > 1<<24 {
		return fmt.Errorf("hourio: implausible dimensions ns=%d nl=%d cells=%d", ns, nl, ncells)
	}
	return nil
}

// chunkF64s is how many float64s readF64s decodes per read (64 KiB).
const chunkF64s = 8 << 10

// readF64s reads n little-endian float64s in chunks of chunkF64s. The
// count comes from a header that may lie, so nothing is allocated ahead
// of the bytes that back it: a stream shorter than its header claims
// fails having allocated at most what it held plus one chunk.
func readF64s(r io.Reader, n int) ([]float64, error) {
	buf := make([]byte, 8*min(n, chunkF64s))
	var chunks [][]float64
	for left := n; left > 0; {
		m := min(left, chunkF64s)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return nil, err
		}
		c := make([]float64, m)
		for i := range c {
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		chunks = append(chunks, c)
		left -= m
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	out := make([]float64, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// ReadHourInput deserialises an hour input, verifying the magic and the
// checksum. It returns the input and the number of bytes read.
func ReadHourInput(r io.Reader) (*meteo.HourInput, int64, error) {
	if err := resilience.Fire(resilience.PointHourRead); err != nil {
		return nil, 0, fmt.Errorf("hourio: %w", err)
	}
	cr := &countingReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, cr.n, fmt.Errorf("hourio: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, cr.n, fmt.Errorf("hourio: bad magic %q", magic)
	}
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(cr, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, cr.n, fmt.Errorf("hourio: reading header: %w", err)
		}
	}
	if err := checkDims(hdr[1], hdr[2], hdr[3]); err != nil {
		return nil, cr.n, err
	}
	hour, ns, nl, ncells := int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3])
	readSection := func(wantTag uint32, wantLen int) ([]float64, error) {
		var tag uint32
		if err := binary.Read(cr, binary.LittleEndian, &tag); err != nil {
			return nil, err
		}
		if tag != wantTag {
			return nil, fmt.Errorf("hourio: section tag %d, want %d", tag, wantTag)
		}
		var n uint64
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n != uint64(wantLen) {
			return nil, fmt.Errorf("hourio: section length %d, want %d", n, wantLen)
		}
		data, err := readF64s(cr, wantLen)
		if err != nil {
			return nil, err
		}
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("hourio: non-finite value in section %d", wantTag)
			}
		}
		return data, nil
	}
	nScalars := 2 + nl + (nl - 1) + 3*ns
	scalars, err := readSection(secScalars, nScalars)
	if err != nil {
		return nil, cr.n, err
	}
	base := 2 + nl + nl - 1
	in := &meteo.HourInput{
		Hour:    hour,
		Sun:     scalars[0],
		KH:      scalars[1],
		TempK:   scalars[2 : 2+nl],
		Kz:      scalars[2+nl : base],
		VDep:    scalars[base : base+ns],
		Inflow:  scalars[base+ns : base+2*ns],
		VSettle: scalars[base+2*ns : base+3*ns],
		WindU:   make([][]float64, nl),
		WindV:   make([][]float64, nl),
		Emis:    make([][]float64, ns),
	}
	for l := 0; l < nl; l++ {
		if in.WindU[l], err = readSection(secWind, ncells); err != nil {
			return nil, cr.n, err
		}
		if in.WindV[l], err = readSection(secWind, ncells); err != nil {
			return nil, cr.n, err
		}
	}
	for s := 0; s < ns; s++ {
		if in.Emis[s], err = readSection(secEmis, ncells); err != nil {
			return nil, cr.n, err
		}
	}
	wantCRC := cr.crc
	var gotCRC uint32
	if err := binary.Read(cr, binary.LittleEndian, &gotCRC); err != nil {
		return nil, cr.n, fmt.Errorf("hourio: reading checksum: %w", err)
	}
	if gotCRC != wantCRC {
		return nil, cr.n, fmt.Errorf("hourio: checksum mismatch: file %08x, computed %08x", gotCRC, wantCRC)
	}
	return in, cr.n, nil
}

// SnapshotSize returns the exact number of bytes WriteSnapshot produces
// for the given dimensions. The snapshot format has no variable-length
// parts, so the output volume is a function of the grid alone: the hour
// loop charges it from the dimensions before the snapshot is encoded, and
// the ledger and trace do not depend on which sink (a file or a byte
// counter) the snapshot goes to. The output stage verifies the bytes it
// actually wrote against this size.
func SnapshotSize(ns, nl, ncells int) int64 {
	// magic + 4 uint64 header + section tag + section length + payload + CRC.
	return int64(len(Magic)) + 4*8 + 4 + 8 + 8*int64(ns)*int64(nl)*int64(ncells) + 4
}

// WriteSnapshot serialises a concentration snapshot (the outputhour
// payload) with dimensions for validation. Returns bytes written.
func WriteSnapshot(w io.Writer, hour, ns, nl, ncells int, conc []float64) (int64, error) {
	if len(conc) != ns*nl*ncells {
		return 0, fmt.Errorf("hourio: snapshot has %d values, want %d", len(conc), ns*nl*ncells)
	}
	if err := resilience.Fire(resilience.PointHourWrite); err != nil {
		return 0, fmt.Errorf("hourio: %w", err)
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write([]byte(Magic)); err != nil {
		return cw.n, err
	}
	for _, v := range []uint64{uint64(hour), uint64(ns), uint64(nl), uint64(ncells)} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, secConc); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint64(len(conc))); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, conc); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, cw.crc); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadSnapshot deserialises a concentration snapshot.
func ReadSnapshot(r io.Reader) (hour, ns, nl, ncells int, conc []float64, bytes int64, err error) {
	if err = resilience.Fire(resilience.PointHourRead); err != nil {
		return 0, 0, 0, 0, nil, 0, fmt.Errorf("hourio: %w", err)
	}
	cr := &countingReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(Magic))
	if _, err = io.ReadFull(cr, magic); err != nil {
		return 0, 0, 0, 0, nil, cr.n, fmt.Errorf("hourio: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return 0, 0, 0, 0, nil, cr.n, fmt.Errorf("hourio: bad magic %q", magic)
	}
	var hdr [4]uint64
	for i := range hdr {
		if err = binary.Read(cr, binary.LittleEndian, &hdr[i]); err != nil {
			return 0, 0, 0, 0, nil, cr.n, err
		}
	}
	if err = checkDims(hdr[1], hdr[2], hdr[3]); err != nil {
		return 0, 0, 0, 0, nil, cr.n, err
	}
	hour, ns, nl, ncells = int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3])
	var tag uint32
	if err = binary.Read(cr, binary.LittleEndian, &tag); err != nil {
		return 0, 0, 0, 0, nil, cr.n, err
	}
	if tag != secConc {
		return 0, 0, 0, 0, nil, cr.n, fmt.Errorf("hourio: section tag %d, want %d", tag, secConc)
	}
	var n uint64
	if err = binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return 0, 0, 0, 0, nil, cr.n, err
	}
	if n != uint64(ns*nl*ncells) {
		return 0, 0, 0, 0, nil, cr.n, fmt.Errorf("hourio: snapshot length %d, want %d", n, ns*nl*ncells)
	}
	if conc, err = readF64s(cr, ns*nl*ncells); err != nil {
		return 0, 0, 0, 0, nil, cr.n, err
	}
	wantCRC := cr.crc
	var gotCRC uint32
	if err = binary.Read(cr, binary.LittleEndian, &gotCRC); err != nil {
		return 0, 0, 0, 0, nil, cr.n, err
	}
	if gotCRC != wantCRC {
		return 0, 0, 0, 0, nil, cr.n, fmt.Errorf("hourio: checksum mismatch")
	}
	return hour, ns, nl, ncells, conc, cr.n, nil
}
