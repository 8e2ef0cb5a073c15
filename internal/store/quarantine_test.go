package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCorruptQuarantinedNotDeleted asserts the read path's corruption
// handling preserves the rotten bytes as evidence: the blob leaves the
// served namespace but lands in quarantine/ intact.
func TestCorruptQuarantinedNotDeleted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := s.PutResult("r1", res); err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(dir, "results", "r1.res")
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(full, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.GetResult("r1"); ok {
		t.Fatal("bit-flipped result served")
	}
	qfull := filepath.Join(dir, "quarantine", "results", "r1.res")
	qdata, err := os.ReadFile(qfull)
	if err != nil {
		t.Fatalf("corrupt result not preserved in quarantine: %v", err)
	}
	if !bytes.Equal(qdata, data) {
		t.Error("quarantined bytes differ from the corrupted blob")
	}
	c := s.Counters()
	if c.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", c.Quarantined)
	}
	if c.QuarantineEntries != 1 {
		t.Errorf("QuarantineEntries = %d, want 1", c.QuarantineEntries)
	}

	// Recompute-and-reput reclaims the key; the evidence stays put.
	if err := s.PutResult("r1", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult("r1"); !ok {
		t.Error("recomputed result not served")
	}
	if _, err := os.Stat(qfull); err != nil {
		t.Errorf("quarantined evidence removed by reput: %v", err)
	}
}

// TestVerifyReadsQuarantines exercises the paranoid read mode: GetBlob
// normally serves raw bytes unverified (the consumer's decode is the
// check), but with verify-reads on, every read re-runs the full
// checksum verification and rot is caught at the read site.
func TestVerifyReadsQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := s.PutResult("r2", res); err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(dir, "results", "r2.res")
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip inside the gzip stream's trailing CRC
	if err := os.WriteFile(full, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Default mode: raw blob reads serve the bytes without verification.
	if _, err := s.GetBlob("results/r2.res"); err != nil {
		t.Fatalf("unverified GetBlob failed: %v", err)
	}

	s.SetVerifyReads(true)
	if !s.verifyReads.Load() {
		t.Fatal("SetVerifyReads did not stick")
	}
	if _, err := s.GetBlob("results/r2.res"); err == nil {
		t.Fatal("verify-reads served a corrupt blob")
	}
	if c := s.Counters(); c.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 after paranoid read", c.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "results", "r2.res")); err != nil {
		t.Errorf("paranoid read did not preserve evidence: %v", err)
	}
}
