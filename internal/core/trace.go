package core

import (
	"fmt"
	"math"

	"airshed/internal/dist"
)

// StepTrace records the charged work of one inner time step, independent
// of machine and node count: per-layer transport flops (one transport
// call; leading and trailing calls of a step are identical because the
// substep count depends only on the hourly wind field), per-cell chemistry
// flops, and the replicated aerosol flops.
type StepTrace struct {
	// LayerFlops[l] is the charged work of transporting layer l for
	// half a time step (one transport call), all species.
	LayerFlops []float64
	// CellFlops[c] is the charged work of the combined chemistry +
	// vertical transport operator on cell c's column for the full step.
	CellFlops []float64
	// AeroFlops is the replicated aerosol work.
	AeroFlops float64
}

// HourTrace records the charged work of one simulated hour.
type HourTrace struct {
	// InBytes / OutBytes are the sequential I/O volumes of inputhour
	// and outputhour.
	InBytes, OutBytes int64
	// PretransFlops is the sequential preprocessing work.
	PretransFlops float64
	// Steps holds the inner loop, length nsteps (runtime determined).
	Steps []StepTrace
}

// Trace is the machine-independent work record of a full run: with a
// machine profile, a node count and a mode it determines every priced
// field of the run's Result, which Price sets from Replay.
type Trace struct {
	// Dataset names the input configuration.
	Dataset string
	// Shape is the concentration array shape.
	Shape dist.Shape
	// Hours holds one record per simulated hour.
	Hours []HourTrace
}

// TotalSteps sums the inner steps over all hours (the paper reports 77
// for the 24-hour LA run).
func (t *Trace) TotalSteps() int {
	total := 0
	for i := range t.Hours {
		total += len(t.Hours[i].Steps)
	}
	return total
}

// maxTraceElements bounds a trace's array size (2^40 values, 8 TiB of
// float64) so that every byte count its replay derives fits an int64.
const maxTraceElements = 1 << 40

// Validate checks internal consistency: a positive shape of bounded size,
// at least one hour, every hour at least one step sized to the shape, and
// every recorded amount of work non-negative and at most
// math.MaxFloat64 / 2n for the trace's n work records, so that no sum a
// replay forms can overflow. NaN and ±Inf fail the same range check. A
// valid trace therefore replays to a finite, non-negative ledger.
func (t *Trace) Validate() error {
	sh := t.Shape
	if !sh.Valid() || sh.Species > maxTraceElements/sh.Layers/sh.Cells {
		return fmt.Errorf("core: trace has invalid shape %v", sh)
	}
	if len(t.Hours) == 0 {
		return fmt.Errorf("core: trace has no hours")
	}
	records := 0
	for hi := range t.Hours {
		records += 1 + len(t.Hours[hi].Steps)*(sh.Layers+sh.Cells+1)
	}
	// Transport work counts twice (leading and trailing call).
	maxWork := math.MaxFloat64 / float64(2*records)
	inRange := func(x float64) bool { return x >= 0 && x <= maxWork }
	for hi := range t.Hours {
		h := &t.Hours[hi]
		if h.InBytes < 0 || h.OutBytes < 0 || !inRange(h.PretransFlops) {
			return fmt.Errorf("core: hour %d has a charge out of range", hi)
		}
		if len(h.Steps) == 0 {
			return fmt.Errorf("core: hour %d has no steps", hi)
		}
		for si := range h.Steps {
			st := &h.Steps[si]
			if len(st.LayerFlops) != sh.Layers {
				return fmt.Errorf("core: hour %d step %d has %d layer records, want %d",
					hi, si, len(st.LayerFlops), sh.Layers)
			}
			if len(st.CellFlops) != sh.Cells {
				return fmt.Errorf("core: hour %d step %d has %d cell records, want %d",
					hi, si, len(st.CellFlops), sh.Cells)
			}
			for l, f := range st.LayerFlops {
				if !inRange(f) {
					return fmt.Errorf("core: hour %d step %d layer %d has work %g", hi, si, l, f)
				}
			}
			for c, f := range st.CellFlops {
				if !inRange(f) {
					return fmt.Errorf("core: hour %d step %d cell %d has work %g", hi, si, c, f)
				}
			}
			if !inRange(st.AeroFlops) {
				return fmt.Errorf("core: hour %d step %d has aerosol work %g", hi, si, st.AeroFlops)
			}
		}
	}
	return nil
}

// SumChemFlops totals chemistry work over the run (sequential work, used
// by the analytic performance model).
func (t *Trace) SumChemFlops() float64 {
	var total float64
	for hi := range t.Hours {
		for si := range t.Hours[hi].Steps {
			for _, f := range t.Hours[hi].Steps[si].CellFlops {
				total += f
			}
		}
	}
	return total
}

// SumTransportFlops totals transport work over the run, counting both the
// leading and trailing call of every step.
func (t *Trace) SumTransportFlops() float64 {
	var total float64
	for hi := range t.Hours {
		for si := range t.Hours[hi].Steps {
			for _, f := range t.Hours[hi].Steps[si].LayerFlops {
				total += 2 * f
			}
		}
	}
	return total
}

// SumAeroFlops totals aerosol work over the run.
func (t *Trace) SumAeroFlops() float64 {
	var total float64
	for hi := range t.Hours {
		for si := range t.Hours[hi].Steps {
			total += t.Hours[hi].Steps[si].AeroFlops
		}
	}
	return total
}
