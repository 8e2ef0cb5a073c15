package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/machine"
)

// miniResult runs a tiny real simulation once per test binary.
var miniResult *core.Result

func testResult(t testing.TB) *core.Result {
	t.Helper()
	if miniResult == nil {
		ds, err := datasets.Mini()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(core.Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, Hours: 1})
		if err != nil {
			t.Fatal(err)
		}
		miniResult = res
	}
	return miniResult
}

func testRecord(t *testing.T) *PhysicsRecord {
	res := testResult(t)
	return &PhysicsRecord{
		Trace:          res.Trace,
		HourlyPeakO3:   res.HourlyPeakO3,
		HourlyPeakCell: res.HourlyPeakCell,
	}
}

func TestResultRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := s.PutResult("abc123", res); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetResult("abc123")
	if !ok {
		t.Fatal("stored result not found")
	}
	if !reflect.DeepEqual(res.Final, back.Final) {
		t.Error("final concentrations did not round-trip bit-identically")
	}
	if back.Ledger.Total != res.Ledger.Total || back.TotalSteps != res.TotalSteps {
		t.Errorf("ledger/steps mismatch: %v/%d vs %v/%d",
			back.Ledger.Total, back.TotalSteps, res.Ledger.Total, res.TotalSteps)
	}
	if !reflect.DeepEqual(res.HourlyPeakO3, back.HourlyPeakO3) {
		t.Error("hourly peaks did not round-trip")
	}
	if _, ok := s.GetResult("nothere"); ok {
		t.Error("missing hash found")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("counters: %+v", c)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t)
	if err := s.PutRecord("ph1", rec); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetRecord("ph1")
	if !ok {
		t.Fatal("stored record not found")
	}
	if !reflect.DeepEqual(rec.HourlyPeakO3, back.HourlyPeakO3) ||
		len(back.Trace.Hours) != len(rec.Trace.Hours) {
		t.Error("record did not round-trip")
	}
	if !reflect.DeepEqual(rec.HourlyPeakCell, back.HourlyPeakCell) {
		t.Errorf("peak cells mismatch: %v vs %v", rec.HourlyPeakCell, back.HourlyPeakCell)
	}
}

func TestCheckpointRoundTripAndRestart(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	sh := res.Trace.Shape
	if err := s.PutCheckpoint("pfx", 0, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
		t.Fatal(err)
	}
	snap, hour, ok := s.Checkpoint("pfx")
	if !ok || hour != 0 {
		t.Fatalf("checkpoint lookup: ok=%v hour=%d", ok, hour)
	}
	// The stored bytes are directly consumable by the core restart path.
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	cont, err := core.RestartReaderContext(context.Background(), bytes.NewReader(snap),
		core.Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Run(core.Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, Hours: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cont.Final, full.Final) {
		t.Error("restart from stored checkpoint diverged from straight-through run")
	}
}

// Corruption in any byte of a stored artifact must be detected by the
// checksum, the entry deleted, and the lookup reported as a miss — the
// caller recomputes, never crashes.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	sh := res.Trace.Shape
	if err := s.PutResult("r1", res); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint("c1", 3, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
		t.Fatal(err)
	}

	flip := func(rel string, truncate bool) {
		full := filepath.Join(dir, rel)
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			data = data[:len(data)/2]
		} else {
			data[len(data)/2] ^= 0x40
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	flip("results/r1.res", false)
	if _, ok := s.GetResult("r1"); ok {
		t.Error("bit-flipped result served")
	}
	if _, err := os.Stat(filepath.Join(dir, "results/r1.res")); !os.IsNotExist(err) {
		t.Error("corrupt result not deleted")
	}

	flip("checkpoints/c1.snap", true)
	if _, _, ok := s.Checkpoint("c1"); ok {
		t.Error("truncated checkpoint served")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints/c1.snap")); !os.IsNotExist(err) {
		t.Error("corrupt checkpoint not deleted")
	}

	c := s.Counters()
	if c.Corrupt != 2 {
		t.Errorf("corrupt counter: %+v", c)
	}
	// Recompute-and-reput works after corruption.
	if err := s.PutResult("r1", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult("r1"); !ok {
		t.Error("recomputed result not served")
	}
}

func TestReopenIndexesExistingEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := s.PutResult("persist", res); err != nil {
		t.Fatal(err)
	}
	// Leftover temp files from a crashed write are swept at open.
	if err := os.WriteFile(filepath.Join(dir, "results", "tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetResult("persist"); !ok {
		t.Error("entry lost across reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, "results", "tmp-123")); !os.IsNotExist(err) {
		t.Error("temp file not swept")
	}
}

func TestGCEvictsOldestUnderByteCap(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t)
	sh := res.Trace.Shape

	// Size one checkpoint, then cap the store at ~2.5 of them.
	probe, err := Open(filepath.Join(dir, "probe"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.PutCheckpoint("x", 0, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
		t.Fatal(err)
	}
	one := probe.Bytes()
	if one <= 0 {
		t.Fatal("empty checkpoint")
	}

	s, err := Open(filepath.Join(dir, "capped"), one*5/2)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []string{"a", "b", "c", "d"} {
		if err := s.PutCheckpoint(h, i, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct mtimes/added times
	}
	if got := s.Bytes(); got > one*5/2 {
		t.Errorf("store over budget after GC: %d > %d", got, one*5/2)
	}
	if _, _, ok := s.Checkpoint("a"); ok {
		t.Error("oldest entry survived GC")
	}
	if _, _, ok := s.Checkpoint("d"); !ok {
		t.Error("newest entry evicted")
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Errorf("no evictions booked: %+v", c)
	}
}

func TestRejectsBadHashes(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("../escape", testResult(t)); err == nil {
		t.Error("path-traversal hash accepted")
	}
	if err := s.PutResult("", testResult(t)); err == nil {
		t.Error("empty hash accepted")
	}
}

// plantTemp simulates a writer that died between CreateTemp and rename,
// leaving a tmp-* file in a kind directory.
func plantTemp(t *testing.T, dir, kind, name string) string {
	t.Helper()
	full := filepath.Join(dir, kind, name)
	if err := os.WriteFile(full, []byte("half-written artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

func TestOpenRecoversFromCrashMidRename(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t)

	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("cafe01", res); err != nil {
		t.Fatal(err)
	}
	committed := s.Bytes()

	// Crash: temp debris lands next to the committed artifact in every
	// kind directory.
	temps := []string{
		plantTemp(t, dir, kindResult, "tmp-123"),
		plantTemp(t, dir, kindRecord, "tmp-456"),
		plantTemp(t, dir, kindCheckpoint, "tmp-789"),
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tmp := range temps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("crash debris %s survived reopen", tmp)
		}
	}
	// The committed artifact is untouched: still indexed, still served,
	// and the debris never entered the byte accounting.
	if got, ok := s2.GetResult("cafe01"); !ok || got.PeakO3 != res.PeakO3 {
		t.Error("committed artifact lost while sweeping crash debris")
	}
	if s2.Bytes() != committed {
		t.Errorf("bytes after reopen = %d, want %d (temps must not be indexed)", s2.Bytes(), committed)
	}
}

// sweepTemps runs the GC pass's temp sweep on its own.
func sweepTemps(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepTempsLocked()
}

func TestSweepTempsRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	temps := []string{
		plantTemp(t, dir, kindResult, "tmp-a"),
		plantTemp(t, dir, kindCheckpoint, "tmp-b"),
	}
	keep := filepath.Join(dir, kindResult, "not-a-temp.json")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	if swept := sweepTemps(s); swept != len(temps) {
		t.Errorf("swept %d orphans, want %d", swept, len(temps))
	}
	for _, tmp := range temps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived SweepTemps", tmp)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Error("sweep removed a non-temp file")
	}
	if c := s.Counters(); c.TempsSwept != uint64(len(temps)) {
		t.Errorf("TempsSwept = %d, want %d", c.TempsSwept, len(temps))
	}
	if sweepTemps(s) != 0 {
		t.Error("second sweep found debris again")
	}
}

func TestGCPassSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t)
	sh := res.Trace.Shape

	probe, err := Open(filepath.Join(dir, "probe"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.PutCheckpoint("x", 0, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
		t.Fatal(err)
	}
	one := probe.Bytes()

	s, err := Open(filepath.Join(dir, "capped"), one*3/2)
	if err != nil {
		t.Fatal(err)
	}
	tmp := plantTemp(t, filepath.Join(dir, "capped"), kindRecord, "tmp-orphan")

	// Two checkpoints overflow the cap, forcing a GC pass — which also
	// sweeps the orphan.
	for i, h := range []string{"a", "b"} {
		if err := s.PutCheckpoint(h, i, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("GC pass did not sweep the orphaned temp")
	}
	if c := s.Counters(); c.TempsSwept != 1 {
		t.Errorf("TempsSwept = %d, want 1", c.TempsSwept)
	}
}
