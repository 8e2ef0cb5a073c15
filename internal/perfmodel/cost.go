package perfmodel

import (
	"airshed/internal/datasets"
	"airshed/internal/scenario"
)

// CostEstimate returns a machine-independent estimate of a scenario's
// sequential work, in the same flop-equivalent units machine.Profile
// charges with ComputeTime: hours x cells x layers x species scaled by
// the dataset's calibrated chemistry + transport flop factors. It is the
// a-priori flavour of the Section 4 computation model — no trace exists
// yet when a fleet coordinator places a spec, so the estimate uses only
// the quantities a compiler could read off the input declaration: the
// array shape A(species, layers, cells) and the run length.
//
// Divide by a worker's effective flop rate (HostWorkers / FlopTime) to
// rank placements; emission-control knobs deliberately do not move the
// estimate (controls change the answer, not the work shape).
func CostEstimate(spec scenario.Spec) (float64, error) {
	n := spec.Normalize()
	if err := n.Validate(); err != nil {
		return 0, err
	}
	// One query per spec of a sweep: ByName builds each grid once a process.
	ds, err := datasets.ByName(n.Dataset)
	if err != nil {
		return 0, err
	}
	sh := ds.Shape
	perHour := float64(sh.Cells) * float64(sh.Layers) * float64(sh.Species) *
		(ds.ChemFlopsScale + ds.TransportFlopsScale)
	return float64(n.Hours) * perHour, nil
}
