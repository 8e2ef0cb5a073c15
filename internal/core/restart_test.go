package core

import (
	"context"
	"path/filepath"
	"testing"

	"airshed/internal/datasets"
	"airshed/internal/machine"
)

// Restarting from an hourly snapshot must continue bit-identically to a
// straight-through run: the snapshot carries the full model state, and the
// hourly forcing is a pure function of the absolute hour.
func TestRestartBitIdentical(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2}

	// Straight-through: 2 hours.
	full := base
	full.Hours = 2
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}

	// Split: 1 hour with snapshots, then restart for 1 more.
	dir := t.TempDir()
	first := base
	first.Hours = 1
	first.SnapshotDir = dir
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	second := base
	second.Hours = 1
	secondRes, err := RestartContext(context.Background(), filepath.Join(dir, "hour_000.snap"), second)
	if err != nil {
		t.Fatal(err)
	}

	if len(secondRes.Final) != len(fullRes.Final) {
		t.Fatal("state length mismatch")
	}
	for i := range fullRes.Final {
		if secondRes.Final[i] != fullRes.Final[i] {
			t.Fatalf("restart diverges at element %d: %g vs %g",
				i, secondRes.Final[i], fullRes.Final[i])
		}
	}
	if secondRes.TotalSteps+len(fullRes.Trace.Hours[0].Steps) != fullRes.TotalSteps {
		t.Errorf("step counts inconsistent: %d + first hour vs %d",
			secondRes.TotalSteps, fullRes.TotalSteps)
	}
}

func TestStartHourShiftsForcing(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	// A run starting at noon sees sunlight immediately; its first-hour
	// peak ozone should not collapse the way a midnight hour does.
	noon := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, Hours: 1, StartHour: 12}
	res, err := Run(noon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HourlyPeakO3) != 1 {
		t.Fatalf("HourlyPeakO3 length %d", len(res.HourlyPeakO3))
	}
	if res.HourlyPeakO3[0] <= 0 {
		t.Error("no ozone at noon")
	}
}

func TestRestartValidation(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestartContext(context.Background(), "nonexistent.snap", Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, Hours: 1}); err == nil {
		t.Error("missing snapshot accepted")
	}
	if _, err := RestartContext(context.Background(), "x.snap", Config{Machine: machine.CrayT3E(), Nodes: 1, Hours: 1}); err == nil {
		t.Error("nil dataset accepted")
	}
	// Dimension mismatch: snapshot from Mini fed to LA would be wrong;
	// emulate with a snapshot written at odd dimensions.
	bad := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, Hours: 1, StartHour: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative StartHour accepted")
	}
	short := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, Hours: 1,
		InitialConc: make([]float64, 3)}
	if err := short.Validate(); err == nil {
		t.Error("short InitialConc accepted")
	}
}

func TestRestartRejectsWrongDimensions(t *testing.T) {
	mini, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Dataset: mini, Machine: machine.CrayT3E(), Nodes: 1, Hours: 1, SnapshotDir: dir}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	la, err := datasets.LA()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestartContext(context.Background(), filepath.Join(dir, "hour_000.snap"),
		Config{Dataset: la, Machine: machine.CrayT3E(), Nodes: 1, Hours: 1}); err == nil {
		t.Error("snapshot with wrong dimensions accepted")
	}
}
