// Package gems is a batch reconstruction of the workflow role GEMS (the
// Group Environmental Modeling System, Riedel et al., the paper's
// reference [22]) plays in the paper: the problem-solving environment
// through which environmental scientists run the integrated Airshed +
// PopExp application and compare control strategies.
//
// A Study is a declarative JSON description — data set, machine, node
// count, a list of emission-control strategies, optional population
// exposure and monitoring stations — that Run executes end to end,
// producing the comparison tables a policy analyst consumes. It is the
// "efficient integrated version of these two programs" workflow of the
// paper's Figure 10, minus the GUI.
package gems

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"airshed/internal/analysis"
	"airshed/internal/core"
	"airshed/internal/datasets"
	frn "airshed/internal/foreign"
	"airshed/internal/popexp"
	"airshed/internal/report"
	"airshed/internal/scenario"
	"airshed/internal/sweep"
)

// Strategy is one emission-control scenario.
type Strategy struct {
	// Name labels the strategy in reports.
	Name string `json:"name"`
	// NOx and VOC scale the respective emission shares (1.0 = base).
	NOx float64 `json:"nox"`
	VOC float64 `json:"voc"`
	// ControlStartHour delays the controls to an absolute hour; before
	// it the base inventory applies. Zero means active all run. All
	// delayed variants of one study share the baseline physics up to
	// their start hour, which a store-backed sweep engine turns into
	// warm starts.
	ControlStartHour int `json:"control_start_hour,omitempty"`
}

// PopExpSpec enables the population exposure stage.
type PopExpSpec struct {
	Enabled bool `json:"enabled"`
	// Population is the total population of the domain.
	Population float64 `json:"population"`
	// Workers is the PVM worker count of the foreign module.
	Workers int `json:"workers"`
}

// Study is the declarative description of a batch run.
type Study struct {
	// Name titles the report.
	Name string `json:"name"`
	// Dataset is "la", "ne" or "mini".
	Dataset string `json:"dataset"`
	// Machine is "t3e", "t3d", "paragon" or "gohost".
	Machine string `json:"machine"`
	// Nodes is the virtual machine size.
	Nodes int `json:"nodes"`
	// Hours is the simulated duration per strategy.
	Hours int `json:"hours"`
	// TaskParallel selects the Section 5 pipelined mode.
	TaskParallel bool `json:"task_parallel"`
	// Strategies lists the emission scenarios; empty means baseline
	// only.
	Strategies []Strategy `json:"strategies"`
	// PopExp optionally adds the exposure stage.
	PopExp PopExpSpec `json:"popexp"`
	// Stations maps monitor names to [x, y] domain coordinates.
	Stations map[string][2]float64 `json:"stations"`
	// OzoneThreshold overrides the exceedance threshold (ppm); zero
	// means the era's 1-hour NAAQS of 0.12 ppm.
	OzoneThreshold float64 `json:"ozone_threshold"`
}

// ParseStudy decodes and validates a JSON study.
func ParseStudy(r io.Reader) (*Study, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Study
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("gems: parsing study: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the study for consistency.
func (s *Study) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("gems: study needs a name")
	case s.Dataset == "":
		return fmt.Errorf("gems: study needs a dataset")
	case s.Machine == "":
		return fmt.Errorf("gems: study needs a machine")
	case s.Nodes <= 0:
		return fmt.Errorf("gems: nodes must be positive")
	case s.Hours <= 0:
		return fmt.Errorf("gems: hours must be positive")
	case s.OzoneThreshold < 0:
		return fmt.Errorf("gems: ozone threshold must be non-negative")
	}
	for i, st := range s.Strategies {
		if st.Name == "" {
			return fmt.Errorf("gems: strategy %d needs a name", i)
		}
		if st.NOx < 0 || st.VOC < 0 {
			return fmt.Errorf("gems: strategy %q has negative scales", st.Name)
		}
		if st.ControlStartHour < 0 {
			return fmt.Errorf("gems: strategy %q has a negative control start hour", st.Name)
		}
	}
	if s.PopExp.Enabled {
		if s.PopExp.Population <= 0 {
			return fmt.Errorf("gems: popexp needs a positive population")
		}
		if s.PopExp.Workers <= 0 {
			return fmt.Errorf("gems: popexp needs at least one worker")
		}
	}
	return nil
}

// StrategyOutcome is one strategy's results.
type StrategyOutcome struct {
	Strategy Strategy
	Result   *core.Result
	// Exceedance of the ozone threshold at the end of the run.
	Exceedance *analysis.Exceedance
	// StationO3 samples ground-level ozone at the monitors.
	StationO3 map[string]float64
	// Risk is the population risk index (PopExp enabled only).
	Risk float64
}

// Outcome is the full study result.
type Outcome struct {
	Study      *Study
	Strategies []StrategyOutcome
}

// Spec translates one strategy of the study into its canonical scenario
// description.
func (s *Study) Spec(st Strategy) scenario.Spec {
	sp := scenario.Spec{
		Dataset:          s.Dataset,
		Machine:          s.Machine,
		Nodes:            s.Nodes,
		Hours:            s.Hours,
		NOxScale:         st.NOx,
		VOCScale:         st.VOC,
		ControlStartHour: st.ControlStartHour,
	}
	if s.TaskParallel {
		sp.Mode = scenario.ModeTask
	}
	return sp
}

// Run executes the study, writing a progress line per strategy to
// progress (may be nil). The strategies go through the sweep engine as
// one batch: they run concurrently on the engine's worker pool, and with
// a store-backed scheduler strategies sharing physics (delayed controls
// over one baseline, repeated studies) warm-start from stored
// checkpoints instead of recomputing.
func Run(s *Study, progress io.Writer, engine *sweep.Engine) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	strategies := s.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{{Name: "baseline", NOx: 1, VOC: 1}}
	}
	threshold := s.OzoneThreshold
	if threshold == 0 {
		threshold = analysis.OzoneNAAQS1Hour
	}
	specs := make([]scenario.Spec, len(strategies))
	for i, st := range strategies {
		specs[i] = s.Spec(st)
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("gems: strategy %q: %w", st.Name, err)
		}
	}

	results, notes, err := runSweep(s.Name, specs, engine)
	if err != nil {
		return nil, err
	}

	// Analysis stage. Grid, mechanism and shape do not vary with the
	// emission scales, so the base dataset serves every strategy.
	ds, err := datasets.ByName(s.Dataset)
	if err != nil {
		return nil, err
	}
	an, err := analysis.New(ds.Grid(), ds.Mechanism())
	if err != nil {
		return nil, err
	}
	var stations []analysis.Station
	if len(s.Stations) > 0 {
		if stations, err = an.NewStations(s.Stations); err != nil {
			return nil, err
		}
	}
	var pop *popexp.Population
	var model *popexp.Model
	if s.PopExp.Enabled {
		scn := ds.Provider.Scenario()
		if pop, err = popexp.SyntheticPopulation(ds.Grid(), scn.UrbanX, scn.UrbanY,
			scn.UrbanRadius, s.PopExp.Population); err != nil {
			return nil, err
		}
		if model, err = popexp.NewModel(ds.Mechanism()); err != nil {
			return nil, err
		}
	}

	out := &Outcome{Study: s}
	for i, st := range strategies {
		res := results[i]
		so := StrategyOutcome{Strategy: st, Result: res}
		if so.Exceedance, err = an.Exceedance(res.Final, ds.Shape.Layers, "O3", threshold, pop); err != nil {
			return nil, err
		}
		if len(stations) > 0 {
			if so.StationO3, err = an.Sample(res.Final, ds.Shape.Layers, "O3", stations); err != nil {
				return nil, err
			}
		}
		if s.PopExp.Enabled {
			coupler, err := frn.NewCoupler(model, pop, ds.Shape.Species, ds.Shape.Layers, s.PopExp.Workers)
			if err != nil {
				return nil, err
			}
			exp, err := coupler.ProcessHour(res.Final)
			if cerr := coupler.Stop(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			so.Risk = model.RiskIndex(exp)
		}
		out.Strategies = append(out.Strategies, so)
		if progress != nil {
			note := ""
			if notes[i] != "" {
				note = " (" + notes[i] + ")"
			}
			fmt.Fprintf(progress, "gems: %-24s peak O3 %.4f ppm, %.0f virtual s%s\n",
				st.Name, res.PeakO3, res.Ledger.Total, note)
		}
	}
	return out, nil
}

// runSweep submits the strategies as one batch sweep and maps the
// finished jobs back to strategy order by spec hash (two strategies
// describing the same scenario share one job). The notes report each
// job's warm-start provenance for the progress log.
func runSweep(name string, specs []scenario.Spec, engine *sweep.Engine) ([]*core.Result, []string, error) {
	st0, err := engine.Start(sweep.Request{Name: name, Specs: specs})
	if err != nil {
		return nil, nil, err
	}
	final, err := engine.Await(context.Background(), st0.ID)
	if err != nil {
		return nil, nil, err
	}
	byHash := make(map[string]sweep.JobView, len(final.Jobs))
	for _, jv := range final.Jobs {
		byHash[jv.Spec.Hash()] = jv
	}
	results := make([]*core.Result, len(specs))
	notes := make([]string, len(specs))
	for i, sp := range specs {
		jv, ok := byHash[sp.Hash()]
		if !ok {
			return nil, nil, fmt.Errorf("gems: sweep dropped scenario %s", sp)
		}
		if jv.Error != "" {
			return nil, nil, fmt.Errorf("gems: scenario %s: %s", sp, jv.Error)
		}
		js, err := engine.Scheduler().Status(jv.JobID)
		if err != nil {
			return nil, nil, err
		}
		if js.Result == nil {
			return nil, nil, fmt.Errorf("gems: scenario %s ended %q without a result", sp, jv.State)
		}
		results[i] = js.Result
		switch {
		case jv.PhysicsReplay:
			notes[i] = "physics replayed from store"
		case jv.WarmStartHour > 0:
			notes[i] = fmt.Sprintf("warm-started at hour %d", jv.WarmStartHour)
		case jv.FromStore:
			notes[i] = "served from store"
		case jv.Cached:
			notes[i] = "cache hit"
		}
	}
	return results, notes, nil
}

// Report renders the outcome as tables.
func (o *Outcome) Report(w io.Writer) error {
	fmt.Fprintf(w, "GEMS study: %s (%s on %s, %d nodes, %d h per strategy)\n\n",
		o.Study.Name, o.Study.Dataset, o.Study.Machine, o.Study.Nodes, o.Study.Hours)
	tb := report.NewTable("Strategy comparison",
		"Strategy", "Peak O3 (ppm)", "Exceedance km2", "Population exposed", "Risk index", "Virtual time (s)")
	for _, so := range o.Strategies {
		tb.AddRow(so.Strategy.Name, so.Result.PeakO3, so.Exceedance.AreaKm2,
			so.Exceedance.Population, so.Risk, so.Result.Ledger.Total)
	}
	if err := tb.Write(w); err != nil {
		return err
	}
	if len(o.Study.Stations) > 0 {
		names := make([]string, 0, len(o.Strategies))
		headers := []string{"Station"}
		for _, so := range o.Strategies {
			headers = append(headers, so.Strategy.Name)
			names = append(names, so.Strategy.Name)
		}
		st := report.NewTable("Ground-level ozone at monitors (ppm, end of run)", headers...)
		// Deterministic station order from the first outcome's map keys
		// via the analyzer ordering: re-derive from study definition.
		stationNames := make([]string, 0, len(o.Study.Stations))
		for n := range o.Study.Stations {
			stationNames = append(stationNames, n)
		}
		sort.Strings(stationNames)
		for _, sn := range stationNames {
			row := []interface{}{sn}
			for _, so := range o.Strategies {
				row = append(row, so.StationO3[sn])
			}
			st.AddRow(row...)
		}
		if err := st.Write(w); err != nil {
			return err
		}
		_ = names
	}
	return nil
}
