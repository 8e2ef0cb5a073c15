// Package chemistry implements the Lcz operator of the Airshed model: the
// gas-phase chemical kinetics integrated with the hybrid scheme of Young
// and Boris (1977) for stiff systems of ordinary differential equations,
// combined with vertical transport (diffusion, surface deposition and
// surface emissions), exactly the pairing the paper describes ("For the
// chemistry and vertical transport equations, the hybrid scheme of Young
// and Boris for stiff systems of ordinary differential equations is
// used"). The operator is independent per horizontal grid cell, which is
// why the chemistry phase of Airshed is parallelised along the cells
// dimension with a high degree of parallelism.
package chemistry

import (
	"fmt"
	"math"

	"airshed/internal/species"
)

// Config tunes the Young–Boris hybrid integrator.
type Config struct {
	// StiffThreshold: a species with loss frequency L*h above this is
	// integrated with the stiff (rational/asymptotic) update instead of
	// the explicit one. Young & Boris use O(1).
	StiffThreshold float64
	// RelTol / AbsTol control the predictor-corrector convergence test.
	RelTol float64
	AbsTol float64
	// InitialDt is the first substep size in minutes.
	InitialDt float64
	// MinDt / MaxDt bound the adaptive substep in minutes.
	MinDt float64
	MaxDt float64
	// MaxCorrector bounds corrector iterations per substep.
	MaxCorrector int
	// Floor is the smallest representable concentration; values below
	// are clipped to zero to preserve positivity.
	Floor float64
	// DisableStiff turns off the stiff (asymptotic) branch so every
	// species uses the explicit update — the ablation showing why the
	// Young-Boris hybrid is necessary: explicit integration of the
	// photochemical mechanism forces the substep down to the fastest
	// radical timescale.
	DisableStiff bool
}

// DefaultConfig returns the configuration used by the Airshed driver.
func DefaultConfig() Config {
	return Config{
		StiffThreshold: 1.0,
		RelTol:         3e-3,
		AbsTol:         1e-9,
		InitialDt:      1.0,
		MinDt:          1e-5,
		MaxDt:          15.0,
		MaxCorrector:   3,
		Floor:          1e-30,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.StiffThreshold <= 0:
		return fmt.Errorf("chemistry: StiffThreshold must be positive")
	case c.RelTol <= 0 || c.AbsTol <= 0:
		return fmt.Errorf("chemistry: tolerances must be positive")
	case c.InitialDt <= 0 || c.MinDt <= 0 || c.MaxDt <= 0:
		return fmt.Errorf("chemistry: step sizes must be positive")
	case c.MinDt > c.MaxDt:
		return fmt.Errorf("chemistry: MinDt %g > MaxDt %g", c.MinDt, c.MaxDt)
	case c.MaxCorrector < 1:
		return fmt.Errorf("chemistry: MaxCorrector must be at least 1")
	case c.Floor < 0:
		return fmt.Errorf("chemistry: Floor must be non-negative")
	}
	return nil
}

// Work accounts the computational effort of an integration, in units the
// cost model converts to virtual machine time.
type Work struct {
	// Substeps is the number of accepted hybrid substeps.
	Substeps int
	// Rejected is the number of rejected (halved) substeps.
	Rejected int
	// Evals is the number of production/loss evaluations performed.
	Evals int
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Substeps += o.Substeps
	w.Rejected += o.Rejected
	w.Evals += o.Evals
}

// Integrator integrates one well-mixed parcel's chemistry with the
// Young–Boris hybrid predictor-corrector. An Integrator owns scratch
// buffers and is NOT safe for concurrent use; create one per worker.
type Integrator struct {
	mech *species.Mechanism
	cfg  Config

	k      []float64 // Integrate's rate constants
	p0, l0 []float64 // production/loss at substep start
	p1, l1 []float64 // production/loss at predicted state
	cPred  []float64 // previous corrector iterate (swaps with cCorr)
	cCorr  []float64 // latest corrector iterate; commit copies it out
	cFirst []float64 // first predictor, kept for the truncation estimate
	dt     float64   // persistent adaptive step across calls

	// p0Valid records that p0/l0 already hold ProdLoss of the current
	// state under the current rate constants. A rejected substep leaves
	// the state untouched, so the retry at half the step reuses the
	// evaluation instead of recomputing identical values — with the
	// mechanism's ~50% rejection rate this removes ~13% of all ProdLoss
	// calls without changing a single result bit.
	p0Valid bool
}

// NewIntegrator creates an integrator for the mechanism.
func NewIntegrator(mech *species.Mechanism, cfg Config) (*Integrator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := mech.N()
	return &Integrator{
		mech:   mech,
		cfg:    cfg,
		k:      make([]float64, len(mech.Reactions)),
		p0:     make([]float64, n),
		l0:     make([]float64, n),
		p1:     make([]float64, n),
		l1:     make([]float64, n),
		cPred:  make([]float64, n),
		cCorr:  make([]float64, n),
		cFirst: make([]float64, n),
		dt:     cfg.InitialDt,
	}, nil
}

// Integrate advances the concentration vector c (length N, modified in
// place, units ppm) by total minutes of simulated time at temperature T
// (K) and actinic flux sun in [0, 1]. It returns the work performed.
func (in *Integrator) Integrate(c []float64, total, T, sun float64) (Work, error) {
	in.mech.RateConstants(T, sun, in.k)
	return in.integrate(c, total, in.k)
}

// IntegrateWithRates is Integrate with the rate constants supplied by
// the caller (length Mechanism.Reactions). The Operator uses this to
// share one RateConstants evaluation across every column of a layer —
// T and sun are hourly, per-layer forcings, so recomputing the Arrhenius
// and photolysis expressions per column is pure waste. The slice is
// borrowed for the duration of the call, not modified.
func (in *Integrator) IntegrateWithRates(c []float64, total float64, k []float64) (Work, error) {
	if len(k) != len(in.k) {
		return Work{}, fmt.Errorf("chemistry: rate vector has %d reactions, want %d", len(k), len(in.k))
	}
	return in.integrate(c, total, k)
}

// integrate advances c by total minutes under the rate constants k. It
// reads c throughout and writes it only in commit, so callers may pass a
// block of a larger array to be integrated in place.
func (in *Integrator) integrate(c []float64, total float64, k []float64) (Work, error) {
	if len(c) != in.mech.N() {
		return Work{}, fmt.Errorf("chemistry: concentration vector has %d species, want %d", len(c), in.mech.N())
	}
	if total < 0 {
		return Work{}, fmt.Errorf("chemistry: negative integration interval %g", total)
	}
	if total == 0 {
		return Work{}, nil
	}
	in.p0Valid = false // new state and rate constants

	var w Work
	remaining := total
	h := math.Min(in.dt, remaining)
	for remaining > 1e-12 {
		if h > remaining {
			h = remaining
		}
		err2, ok := in.substep(c, k, h, &w)
		if !ok {
			// Step rejected: halve and retry unless at the floor.
			if h <= in.cfg.MinDt*(1+1e-9) {
				// Accept the floored step rather than loop
				// forever; the floor is chosen so this is a
				// last resort.
				in.commit(c)
				remaining -= h
				w.Substeps++
				continue
			}
			h = math.Max(h/2, in.cfg.MinDt)
			w.Rejected++
			continue
		}
		in.commit(c)
		remaining -= h
		w.Substeps++
		// Step-size controller: grow gently when accurate.
		if err2 < 0.25 {
			h = math.Min(h*2, in.cfg.MaxDt)
		} else if err2 < 0.75 {
			h = math.Min(h*1.2, in.cfg.MaxDt)
		}
	}
	in.dt = math.Min(math.Max(h, in.cfg.MinDt), in.cfg.MaxDt)
	return w, nil
}

// substep attempts one hybrid step of size h from c into in.cCorr. It
// returns the normalised error measure and whether the step converged;
// either way in.cCorr holds the last corrector iterate, which the floored
// step in integrate commits even when rejected.
func (in *Integrator) substep(c, k []float64, h float64, w *Work) (float64, bool) {
	cfg := &in.cfg
	// Reslice every per-species buffer to len(c) once, so the loops
	// below run without bounds checks.
	n := len(c)
	p0, l0, p1, l1 := in.p0[:n], in.l0[:n], in.p1[:n], in.l1[:n]
	cFirst := in.cFirst[:n]

	// A retry after a rejection sees the same c and k; p0/l0 still hold.
	if !in.p0Valid {
		in.mech.ProdLoss(c, k, p0, l0)
		w.Evals++
		in.p0Valid = true
	}

	// Predictor, written straight into cFirst: it is both the first
	// corrector's input and the low-order state of the truncation
	// estimate.
	for i := range cFirst {
		lh := l0[i] * h
		var v float64
		if lh > cfg.StiffThreshold && !cfg.DisableStiff {
			// Stiff branch: exact integral for frozen P and L,
			// c(t+h) = P/L + (c - P/L) exp(-L h). Unconditionally
			// stable and positivity preserving, and it tends to
			// the asymptotic state P/L as L h -> infinity, which
			// is the regime the Young-Boris hybrid targets.
			eq := p0[i] / l0[i]
			if lh > 36 {
				v = eq // fully relaxed: exp(-lh) underflows the tolerance
			} else {
				v = eq + (c[i]-eq)*math.Exp(-lh)
			}
		} else {
			v = c[i] + h*(p0[i]-l0[i]*c[i])
		}
		if v < cfg.Floor {
			v = 0
		}
		cFirst[i] = v
	}

	// Corrector iterations, to convergence of the iterate. Iterates
	// alternate between cCorr and cPred by swapping the slice headers.
	prev := cFirst
	var cCorr []float64
	for iter := 1; ; iter++ {
		// The swap below hides the lengths from the compiler.
		prev, cCorr = prev[:n], in.cCorr[:n]
		in.mech.ProdLoss(prev, k, p1, l1)
		w.Evals++
		converged := true
		for i := range cCorr {
			pBar := 0.5 * (p0[i] + p1[i])
			lBar := 0.5 * (l0[i] + l1[i])
			lh := lBar * h
			var v float64
			if lh > cfg.StiffThreshold && !cfg.DisableStiff {
				eq := pBar / lBar
				if lh > 36 {
					v = eq
				} else {
					v = eq + (c[i]-eq)*math.Exp(-lh)
				}
			} else {
				v = c[i] + 0.5*h*((p0[i]-l0[i]*c[i])+(p1[i]-l1[i]*prev[i]))
			}
			if v < cfg.Floor {
				v = 0
			}
			// The iterate has converged when every species moved by
			// less than its tolerance: |v-prev|/(AbsTol+RelTol|v|) < 1,
			// tested without the divide. Comparing the difference with
			// zero (rather than the two sides with each other) keeps
			// the quotient's behaviour in every case: a NaN on either
			// side, or Inf on both, never blocks convergence.
			if math.Abs(v-prev[i])-(cfg.AbsTol+cfg.RelTol*math.Abs(v)) >= 0 {
				converged = false
			}
			cCorr[i] = v
		}
		if converged {
			break
		}
		if iter == cfg.MaxCorrector {
			return math.Inf(1), false
		}
		in.cPred, in.cCorr = in.cCorr, in.cPred
		prev = in.cPred
	}

	// Local truncation estimate: the distance between the first
	// (low-order) predictor and the converged corrector, in units of the
	// tolerances. This is what controls the step size — corrector
	// convergence alone would happily accept steps across which the
	// solution changes violently (Young & Boris select their timestep
	// from exactly this kind of predictor-corrector discrepancy).
	errNorm := 0.0
	for i := range cCorr {
		scale := math.Abs(c[i])
		if v := math.Abs(cCorr[i]); v > scale {
			scale = v
		}
		e := math.Abs(cCorr[i]-cFirst[i]) / (cfg.AbsTol + cfg.RelTol*scale)
		if e > errNorm {
			errNorm = e
		}
	}
	// The predictor-corrector gap overestimates the trapezoidal error by
	// roughly one order of h; accept within a generous multiple.
	const band = 50.0
	return errNorm / band, errNorm < band
}

// commit copies the accepted corrector state into c.
func (in *Integrator) commit(c []float64) {
	copy(c, in.cCorr)
	in.p0Valid = false
}

// ResetStep restores the adaptive substep to its initial value; used when
// moving to a column with very different conditions.
func (in *Integrator) ResetStep() { in.dt = in.cfg.InitialDt }
