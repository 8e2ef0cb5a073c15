package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"airshed/internal/resilience"
)

// PhysicsError kinds: which plausibility invariant a sentinel trip
// violated.
const (
	// PhysicsNonFinite is a NaN or ±Inf concentration.
	PhysicsNonFinite = "non-finite"
	// PhysicsNegative is a negative concentration (every kernel is
	// positivity-preserving, so negativity is corruption, not physics).
	PhysicsNegative = "negative"
	// PhysicsMassDrift is a domain-total mass change across one hour
	// beyond Config.MassDriftBound.
	PhysicsMassDrift = "mass-drift"
)

// PhysicsError is a physical-plausibility violation caught by the
// in-run sentinels: after every simulated hour the driver scans the
// concentration array for non-finite and negative values and
// checks the domain-total mass ledger against the previous hour. It is
// permanent by classification (Transient() == false): the numerics are
// deterministic, so re-running the same spec reproduces the same
// garbage — the retry loop must surface the failure immediately instead
// of burning its backoff budget on it.
type PhysicsError struct {
	// Kind is one of the Physics* constants.
	Kind string
	// Hour is the simulated hour whose post-hour scan tripped.
	Hour int
	// Cell, Layer and Species locate the first offending value; all -1
	// for domain-global violations (mass drift).
	Cell, Layer, Species int
	// Value is the offending concentration, or the mass ratio for
	// PhysicsMassDrift.
	Value float64
	// PrevMass and Mass are the hour-over-hour domain totals
	// (PhysicsMassDrift only).
	PrevMass, Mass float64
}

func (e *PhysicsError) Error() string {
	if e.Kind == PhysicsMassDrift {
		return fmt.Sprintf("core: physics sentinel at hour %d: domain mass drifted ×%.4g (%.6g -> %.6g)",
			e.Hour, e.Value, e.PrevMass, e.Mass)
	}
	return fmt.Sprintf("core: physics sentinel at hour %d: %s concentration %g (cell %d, layer %d, species %d)",
		e.Hour, e.Kind, e.Value, e.Cell, e.Layer, e.Species)
}

// Transient reports false: a sentinel trip is deterministic garbage,
// not a recoverable environmental failure.
func (e *PhysicsError) Transient() bool { return false }

// defaultMassDriftBound is the mass-ledger trip factor when
// Config.MassDriftBound is zero: emissions and deposition move the
// domain total every hour, but an hour-over-hour change beyond 10×
// (either direction) is numerically impossible for the real kernels.
const defaultMassDriftBound = 10.0

// sentinelCheck runs the post-hour physics sentinels on the concentration
// array conc, before the hour's state is persisted anywhere: a tripped
// sentinel means no snapshot, checkpoint or result carries the garbage.
// The core.sentinel fault point fires first and, when it does,
// deterministically poisons conc (the only injection point
// allowed to corrupt state — its poison is guaranteed to trip the scan
// below, so a fired fault always fails the run rather than silently
// polluting it).
func (s *Simulation) sentinelCheck(hour int, conc []float64) error {
	if s.cfg.DisableSentinels {
		return nil
	}
	if err := resilience.Fire(resilience.PointCoreSentinel); err != nil {
		var inj *resilience.InjectedError
		if errors.As(err, &inj) {
			s.poison(conc, inj.Call)
		}
	}
	sh := s.cfg.Dataset.Shape
	total := 0.0
	for i, v := range conc {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			kind := PhysicsNonFinite
			if v < 0 && !math.IsInf(v, -1) {
				kind = PhysicsNegative
			}
			sp := i % sh.Species
			l := (i / sh.Species) % sh.Layers
			c := i / (sh.Species * sh.Layers)
			return &PhysicsError{Kind: kind, Hour: hour, Cell: c, Layer: l, Species: sp, Value: v}
		}
		total += v
	}
	bound := s.cfg.MassDriftBound
	if bound == 0 {
		bound = defaultMassDriftBound
	}
	if s.prevMass > 0 && bound > 0 {
		ratio := total / s.prevMass
		if ratio > bound || ratio < 1/bound {
			return &PhysicsError{Kind: PhysicsMassDrift, Hour: hour, Cell: -1, Layer: -1, Species: -1,
				Value: ratio, PrevMass: s.prevMass, Mass: total}
		}
	}
	s.prevMass = total
	return nil
}

// poison corrupts conc for one fired core.sentinel fault, cycling
// through the three sentinel kinds by call index so a chaos schedule
// exercises every trip path. A mass-drift poison needs a
// previous-hour ledger entry to trip against; on the first scanned hour
// it falls back to NaN so a fired fault can never pass undetected.
func (s *Simulation) poison(conc []float64, call uint64) {
	switch {
	case call%3 == 1 && s.prevMass > 0:
		for i := range conc {
			conc[i] *= 1e6
		}
	case call%3 == 2:
		conc[0] = -1
	default:
		conc[0] = math.NaN()
	}
}

// wedgePoint is the stuck-hour fault point, fired at the head of every
// simulated hour: a fired fault black-holes the hour — it blocks until
// the run context is cancelled, modelling a compute hang no error path
// ever returns from. Only deadline expiry or the scheduler's stuck-hour
// watchdog frees it, which is exactly what those mechanisms exist for.
func (s *Simulation) wedgePoint(ctx context.Context, hour int) error {
	if err := resilience.Fire(resilience.PointCoreWedge); err != nil {
		<-ctx.Done()
		return fmt.Errorf("core: hour %d wedged (injected hang): %w", hour, ctx.Err())
	}
	return nil
}
