package core

import (
	"errors"
	"math"
	"testing"

	"airshed/internal/datasets"
	"airshed/internal/machine"
	"airshed/internal/resilience"
)

// sentinelSim builds a Simulation shell with just enough state for the
// sentinel scan: the Mini dataset shape and an optional mass ledger.
func sentinelSim(t *testing.T, prevMass float64) *Simulation {
	t.Helper()
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	return &Simulation{cfg: Config{Dataset: ds}, prevMass: prevMass}
}

// cleanReplica is a strictly positive field of the Mini replica size.
func cleanReplica(s *Simulation) []float64 {
	sh := s.cfg.Dataset.Shape
	repl := make([]float64, sh.Species*sh.Layers*sh.Cells)
	for i := range repl {
		repl[i] = 1e-3
	}
	return repl
}

func TestSentinelNonFinite(t *testing.T) {
	s := sentinelSim(t, 0)
	sh := s.cfg.Dataset.Shape
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		repl := cleanReplica(s)
		// Poison a mid-array value so the index decode is exercised.
		cell, layer, species := 3, 1, 2
		idx := (cell*sh.Layers+layer)*sh.Species + species
		repl[idx] = bad
		err := s.sentinelCheck(7, repl)
		var pe *PhysicsError
		if !errors.As(err, &pe) {
			t.Fatalf("poison %v: want *PhysicsError, got %v", bad, err)
		}
		if pe.Kind != PhysicsNonFinite {
			t.Errorf("poison %v: kind = %q, want %q", bad, pe.Kind, PhysicsNonFinite)
		}
		if pe.Hour != 7 || pe.Cell != cell || pe.Layer != layer || pe.Species != species {
			t.Errorf("poison %v: diagnostics hour=%d cell=%d layer=%d species=%d, want 7/%d/%d/%d",
				bad, pe.Hour, pe.Cell, pe.Layer, pe.Species, cell, layer, species)
		}
		if resilience.IsTransient(err) {
			t.Errorf("poison %v: sentinel trip classified transient; must be permanent", bad)
		}
	}
}

func TestSentinelNegative(t *testing.T) {
	s := sentinelSim(t, 0)
	repl := cleanReplica(s)
	repl[0] = -0.25
	err := s.sentinelCheck(3, repl)
	var pe *PhysicsError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PhysicsError, got %v", err)
	}
	if pe.Kind != PhysicsNegative {
		t.Errorf("kind = %q, want %q", pe.Kind, PhysicsNegative)
	}
	if pe.Cell != 0 || pe.Layer != 0 || pe.Species != 0 || pe.Value != -0.25 {
		t.Errorf("diagnostics = cell %d layer %d species %d value %g, want 0/0/0/-0.25",
			pe.Cell, pe.Layer, pe.Species, pe.Value)
	}
	if resilience.IsTransient(err) {
		t.Error("negative trip classified transient; must be permanent")
	}
}

func TestSentinelMassDrift(t *testing.T) {
	s := sentinelSim(t, 0)
	repl := cleanReplica(s)
	// First scanned hour records the ledger without tripping.
	if err := s.sentinelCheck(0, repl); err != nil {
		t.Fatalf("clean first hour tripped: %v", err)
	}
	base := s.prevMass
	if base <= 0 {
		t.Fatalf("mass ledger not recorded, prevMass = %g", base)
	}
	// Blow the domain total past the default 10x bound.
	for i := range repl {
		repl[i] *= 1e3
	}
	err := s.sentinelCheck(1, repl)
	var pe *PhysicsError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PhysicsError, got %v", err)
	}
	if pe.Kind != PhysicsMassDrift {
		t.Errorf("kind = %q, want %q", pe.Kind, PhysicsMassDrift)
	}
	if pe.Cell != -1 || pe.Layer != -1 || pe.Species != -1 {
		t.Errorf("mass drift should be domain-global (-1 indices), got cell %d layer %d species %d",
			pe.Cell, pe.Layer, pe.Species)
	}
	if pe.PrevMass != base || math.Abs(pe.Value-1e3) > 1 {
		t.Errorf("ledger diagnostics: prev %g ratio %g, want prev %g ratio ~1000", pe.PrevMass, pe.Value, base)
	}
	if resilience.IsTransient(err) {
		t.Error("mass-drift trip classified transient; must be permanent")
	}
	// A tripped scan must not advance the ledger.
	if s.prevMass != base {
		t.Errorf("prevMass advanced to %g after trip, want %g retained", s.prevMass, base)
	}
}

func TestSentinelMassDriftBoundConfig(t *testing.T) {
	s := sentinelSim(t, 0)
	s.cfg.MassDriftBound = 2
	repl := cleanReplica(s)
	if err := s.sentinelCheck(0, repl); err != nil {
		t.Fatalf("first hour: %v", err)
	}
	for i := range repl {
		repl[i] *= 3 // within the default 10x, beyond the configured 2x
	}
	err := s.sentinelCheck(1, repl)
	var pe *PhysicsError
	if !errors.As(err, &pe) || pe.Kind != PhysicsMassDrift {
		t.Fatalf("tightened bound did not trip: %v", err)
	}
}

func TestSentinelDisabled(t *testing.T) {
	s := sentinelSim(t, 0)
	s.cfg.DisableSentinels = true
	repl := cleanReplica(s)
	repl[0] = math.NaN()
	if err := s.sentinelCheck(0, repl); err != nil {
		t.Fatalf("disabled sentinels still tripped: %v", err)
	}
}

// TestSentinelInjectionFailsRun drives a full Mini run with the
// core.sentinel fault point firing on every hour: the injected poison
// must surface as a typed *PhysicsError from Run, proving the scan sits
// between the hour computation and any persistence.
func TestSentinelInjectionFailsRun(t *testing.T) {
	inj := resilience.New(17).Set(resilience.PointCoreSentinel, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Dataset: ds,
		Machine: machine.CrayT3E(),
		Nodes:   2,
		Hours:   1,
		Mode:    DataParallel,
	})
	var pe *PhysicsError
	if !errors.As(err, &pe) {
		t.Fatalf("poisoned run: want *PhysicsError, got %v", err)
	}
	if pe.Hour != 0 {
		t.Errorf("trip hour = %d, want 0", pe.Hour)
	}
	if resilience.IsTransient(err) {
		t.Error("injected sentinel trip classified transient")
	}
}
