package sr

import (
	"context"
	"fmt"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/popexp"
	"airshed/internal/scenario"
	"airshed/internal/sweep"
)

// ServedPopulation is the total synthetic population the exposure
// columns are computed over. Fixed: it is part of the matrix contents,
// so it must not vary between builders of the same key.
const ServedPopulation = 1e6

// response is one run's served quantities, extracted uniformly for the
// base and every perturbation.
type response struct {
	groundO3     []float64
	hourlyPeakO3 []float64
	peakO3       float64
	peakO3Cell   int
	dose         [][]float64
	risk         float64
}

// extractor pulls responses out of core.Results for one dataset.
type extractor struct {
	iO3     int
	ns, nl  int
	model   *popexp.Model
	pop     *popexp.Population
	cells   int
	tracked []string
}

func newExtractor(base scenario.Spec) (*extractor, error) {
	ds, err := datasets.ByName(base.Normalize().Dataset)
	if err != nil {
		return nil, err
	}
	mech, g := ds.Mechanism(), ds.Grid()
	model, err := popexp.NewModel(mech)
	if err != nil {
		return nil, err
	}
	scn := ds.Provider.Scenario()
	pop, err := popexp.SyntheticPopulation(g, scn.UrbanX, scn.UrbanY, scn.UrbanRadius, ServedPopulation)
	if err != nil {
		return nil, err
	}
	return &extractor{
		iO3:     mech.MustIndex("O3"),
		ns:      mech.N(),
		nl:      ds.Geometry().Layers(),
		model:   model,
		pop:     pop,
		cells:   g.NumCells(),
		tracked: append([]string(nil), popexp.TrackedSpecies...),
	}, nil
}

func (x *extractor) extract(res *core.Result) (*response, error) {
	if len(res.Final) != x.ns*x.nl*x.cells {
		return nil, fmt.Errorf("sr: result has %d concentrations, want %d", len(res.Final), x.ns*x.nl*x.cells)
	}
	ground := make([]float64, x.cells)
	for c := 0; c < x.cells; c++ {
		ground[c] = res.Final[x.iO3+x.ns*(0+x.nl*c)]
	}
	exp, _, err := x.model.ComputeHour(res.Final, x.ns, x.nl, x.pop)
	if err != nil {
		return nil, err
	}
	return &response{
		groundO3:     ground,
		hourlyPeakO3: append([]float64(nil), res.HourlyPeakO3...),
		peakO3:       res.PeakO3,
		peakO3Cell:   res.PeakO3Cell,
		dose:         exp.Dose,
		risk:         x.model.RiskIndex(exp),
	}, nil
}

// Assemble builds the matrix from a complete result set, keyed by spec
// content hash (scenario.Spec.Hash) — the map a finished sweep's
// Engine.Results returns, or one read back from a shared artifact
// store after a fleet build. Assembly is deterministic: columns are
// emitted in Set.Specs order and differenced with the same float
// operations regardless of how or where the runs executed, and the
// Matrix holds no maps, so the gob encoding of two assemblies from the
// same runs is byte-identical.
func Assemble(set Set, results map[string]*core.Result) (*Matrix, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	n := set.Normalize()
	specs := n.Specs()
	x, err := newExtractor(n.Base)
	if err != nil {
		return nil, err
	}
	resps := make([]*response, len(specs))
	for i, sp := range specs {
		res := results[sp.Hash()]
		if res == nil {
			return nil, fmt.Errorf("sr: missing run for %s", sp)
		}
		if resps[i], err = x.extract(res); err != nil {
			return nil, err
		}
	}
	base := resps[0]
	m := &Matrix{
		Version:          FormatVersion,
		Key:              n.Key(),
		SetHash:          n.Hash(),
		Base:             n.Base,
		Groups:           n.Groups,
		Step:             n.Step,
		Knobs:            append([]string(nil), n.Knobs...),
		Receptors:        x.cells,
		Hours:            len(base.hourlyPeakO3),
		Cohorts:          x.model.Cohorts,
		TrackedSpecies:   x.tracked,
		BaseGroundO3:     base.groundO3,
		BaseHourlyPeakO3: base.hourlyPeakO3,
		BasePeakO3:       base.peakO3,
		BasePeakO3Cell:   base.peakO3Cell,
		BaseDose:         base.dose,
		BaseRisk:         base.risk,
	}
	// specs[0] is the base; after it, Set.Specs emits for each knob the
	// global bump then the group bumps — mirror that order exactly.
	ri := 1
	for _, knob := range n.Knobs {
		m.Columns = append(m.Columns, diffColumn(knob, GlobalGroup, base, resps[ri], n.Step))
		ri++
		for g := 0; g < n.Groups; g++ {
			m.Columns = append(m.Columns, diffColumn(knob, g, base, resps[ri], n.Step))
			ri++
		}
	}
	return m, nil
}

// diffColumn forms one finite-difference sensitivity column:
// (perturbed − base) / step for every served quantity.
func diffColumn(knob string, group int, base, pert *response, step float64) Column {
	col := Column{
		Knob:         knob,
		Group:        group,
		GroundO3:     make([]float64, len(base.groundO3)),
		HourlyPeakO3: make([]float64, len(base.hourlyPeakO3)),
		PeakO3:       (pert.peakO3 - base.peakO3) / step,
		Risk:         (pert.risk - base.risk) / step,
		Dose:         make([][]float64, len(base.dose)),
	}
	for i := range base.groundO3 {
		col.GroundO3[i] = (pert.groundO3[i] - base.groundO3[i]) / step
	}
	for i := range base.hourlyPeakO3 {
		col.HourlyPeakO3[i] = (pert.hourlyPeakO3[i] - base.hourlyPeakO3[i]) / step
	}
	for c := range base.dose {
		col.Dose[c] = make([]float64, len(base.dose[c]))
		for s := range base.dose[c] {
			col.Dose[c][s] = (pert.dose[c][s] - base.dose[c][s]) / step
		}
	}
	return col
}

// Builder drives SR matrix builds through a sweep engine, so the
// perturbation runs get the engine's prefix seeding, warm starts,
// retries and (when the scheduler is fleet-backed) sharding.
type Builder struct {
	eng *sweep.Engine
}

// NewBuilder wraps a sweep engine.
func NewBuilder(eng *sweep.Engine) *Builder { return &Builder{eng: eng} }

// Build runs the set's perturbations and assembles the matrix. The
// finished matrix is persisted to the scheduler's artifact store when
// one is configured (under store.SRMatrixKey(m.Key)), so it survives
// restarts; persistence failure degrades to an unsaved matrix, not a
// build failure.
func (b *Builder) Build(ctx context.Context, set Set) (*Matrix, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	n := set.Normalize()
	specs := n.Specs()
	st, err := b.eng.Start(sweep.Request{
		Name:  "sr:" + n.Key()[:12],
		Specs: specs,
	})
	if err != nil {
		return nil, fmt.Errorf("sr: starting perturbation sweep: %w", err)
	}
	if _, err := b.eng.Await(ctx, st.ID); err != nil {
		return nil, err
	}
	results, err := b.eng.Results(st.ID)
	if err != nil {
		return nil, err
	}
	// The sweep dedupes by hash and a spec can fail: fall back to the
	// artifact store for anything the engine cannot hand back directly.
	if sched := b.eng.Scheduler(); sched.Persistent() {
		for _, sp := range specs {
			h := sp.Hash()
			if results[h] != nil {
				continue
			}
			if res, ok := sched.Store().GetResult(h); ok {
				results[h] = res
			}
		}
	}
	m, err := Assemble(n, results)
	if err != nil {
		return nil, err
	}
	if sched := b.eng.Scheduler(); sched.Persistent() {
		sched.Store().PutSRMatrix(m.Key, m) //nolint:errcheck // degrade to unsaved
	}
	return m, nil
}
