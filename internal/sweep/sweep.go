// Package sweep is the batch policy-study engine of the scenario
// service: a declarative Request names a base scenario and a grid of
// axes to vary (emission-control scales, control activation hours, data
// sets, machines, node counts, execution modes); Expand turns the cross
// product into concrete scenario jobs, and an Engine fans them out
// through the internal/sched worker pool, tracking per-job progress and
// aggregating the finished runs into a policy comparison table
// (internal/analysis ozone peaks and standard-exceedance areas).
//
// This is the paper's motivating workload run as one request: "the
// effect of air pollution control measures can be evaluated at a low
// cost making it possible to select the best strategy" — many closely
// related Airshed runs, most of which share physics with one another.
// When the scheduler is backed by a persistent artifact store, the
// engine exploits that overlap deliberately: before submitting the
// sweep's jobs it runs a prefix-seed pass, submitting the longest
// shared physics prefix of every warm-start family (scenario
// Spec.PrefixSpec) and waiting for those seeds, so the shared hours are
// simulated exactly once and every variant then warm-starts from the
// seed's stored checkpoint — or, for jobs differing only in machine,
// node count or mode, skips simulation entirely via physics replay.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"airshed/internal/analysis"
	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/scenario"
	"airshed/internal/sched"
)

// MaxJobs bounds one sweep's expansion; a grid crossing past this is a
// request error, not a denial-of-service on the queue.
const MaxJobs = 1024

// ErrUnknownSweep reports a sweep ID the engine has never issued.
var ErrUnknownSweep = errors.New("sweep: unknown sweep")

// Grid lists the axes to vary around the base spec. Empty axes keep the
// base's value; the expansion is the cross product of the non-empty
// ones.
type Grid struct {
	NOxScales         []float64 `json:"nox_scales,omitempty"`
	VOCScales         []float64 `json:"voc_scales,omitempty"`
	ControlStartHours []int     `json:"control_start_hours,omitempty"`
	Datasets          []string  `json:"datasets,omitempty"`
	Machines          []string  `json:"machines,omitempty"`
	Nodes             []int     `json:"nodes,omitempty"`
	Modes             []string  `json:"modes,omitempty"`
}

// Request is a declarative batch study: a base scenario, a grid of
// variations, and optionally explicit extra specs (which only inherit
// nothing — they are complete scenarios of their own). Repair re-runs
// every spec cold through sched.Recompute, rewriting all its artifacts
// even when a result is held: a fleet coordinator sends it for specs a
// worker finished whose results the store could not give back.
type Request struct {
	Name   string          `json:"name,omitempty"`
	Base   scenario.Spec   `json:"base"`
	Grid   Grid            `json:"grid,omitempty"`
	Specs  []scenario.Spec `json:"specs,omitempty"`
	Repair bool            `json:"repair,omitempty"`
}

// Expand produces the sweep's concrete scenario list: the grid's cross
// product applied to the base, then the explicit specs, validated and
// deduplicated by content hash (first occurrence wins). A request whose
// grid is empty and carries no explicit specs expands to the base
// alone; a request with explicit specs and a zero base is specs-only.
func (r Request) Expand() ([]scenario.Spec, error) {
	g := r.Grid
	datasetsAxis := orString(g.Datasets, r.Base.Dataset)
	machines := orString(g.Machines, r.Base.Machine)
	nodes := orInt(g.Nodes, r.Base.Nodes)
	modes := orString(g.Modes, r.Base.Mode)
	noxes := orFloat(g.NOxScales, r.Base.NOxScale)
	vocs := orFloat(g.VOCScales, r.Base.VOCScale)
	starts := orInt(g.ControlStartHours, r.Base.ControlStartHour)

	count := len(datasetsAxis) * len(machines) * len(nodes) * len(modes) *
		len(noxes) * len(vocs) * len(starts)
	if count+len(r.Specs) > MaxJobs {
		return nil, fmt.Errorf("sweep: grid expands to %d jobs (max %d)", count+len(r.Specs), MaxJobs)
	}

	var out []scenario.Spec
	seen := make(map[string]bool)
	add := func(sp scenario.Spec) error {
		if err := sp.Validate(); err != nil {
			return err
		}
		n := sp.Normalize()
		if h := n.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, n)
		}
		return nil
	}
	if r.Base == (scenario.Spec{}) && len(r.Specs) > 0 {
		// Specs-only request (the programmatic path, e.g. internal/gems):
		// no base to cross, just the explicit scenario list.
		for _, sp := range r.Specs {
			if err := add(sp); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, ds := range datasetsAxis {
		for _, m := range machines {
			for _, p := range nodes {
				for _, mode := range modes {
					for _, nox := range noxes {
						for _, voc := range vocs {
							for _, cs := range starts {
								sp := r.Base
								sp.Dataset, sp.Machine, sp.Nodes, sp.Mode = ds, m, p, mode
								sp.NOxScale, sp.VOCScale, sp.ControlStartHour = nox, voc, cs
								if err := add(sp); err != nil {
									return nil, err
								}
							}
						}
					}
				}
			}
		}
	}
	for _, sp := range r.Specs {
		if err := add(sp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func orString(axis []string, base string) []string {
	if len(axis) == 0 {
		return []string{base}
	}
	return axis
}

func orInt(axis []int, base int) []int {
	if len(axis) == 0 {
		return []int{base}
	}
	return axis
}

func orFloat(axis []float64, base float64) []float64 {
	if len(axis) == 0 {
		return []float64{base}
	}
	return axis
}

// SeedSpecs computes the prefix-seed pass for a job list: for every
// group of two or more jobs sharing a physics prefix, the runnable spec
// of the longest shared prefix (scenario.Spec.PrefixSpec). Submitting
// and awaiting these before the jobs themselves makes each shared
// prefix compute exactly once; every family member then finds the
// seed's checkpoint in the store. Seeds that coincide with an actual
// job are kept — the later job submission becomes a cache hit.
func SeedSpecs(specs []scenario.Spec) []scenario.Spec {
	type fam struct {
		count int
		seed  scenario.Spec
		kind  int // prefix hours, to prefer longer seeds at equal hash
	}
	families := make(map[string]*fam)
	var order []string
	for _, sp := range specs {
		n := sp.Normalize()
		for _, k := range n.PrefixBoundaries() {
			ph := n.PhysicsPrefixHash(k)
			if f, ok := families[ph]; ok {
				f.count++
			} else {
				families[ph] = &fam{count: 1, seed: n.PrefixSpec(k), kind: k}
				order = append(order, ph)
			}
		}
	}
	var seeds []scenario.Spec
	seen := make(map[string]bool)
	for _, ph := range order {
		f := families[ph]
		if f.count < 2 {
			continue
		}
		if h := f.seed.Hash(); !seen[h] {
			seen[h] = true
			seeds = append(seeds, f.seed)
		}
	}
	return seeds
}

// PolicyRow is one line of the aggregate policy table: the scenario,
// its air-quality outcome and its cost.
type PolicyRow struct {
	Spec scenario.Spec `json:"spec"`
	// PeakO3 is the run's ground-level ozone maximum (ppm), at PeakCell.
	PeakO3   float64 `json:"peak_o3"`
	PeakCell int     `json:"peak_cell"`
	// ExceedanceKm2/Frac measure the area over the 1-hour ozone NAAQS at
	// the end of the run.
	ExceedanceKm2  float64 `json:"exceedance_km2"`
	ExceedanceFrac float64 `json:"exceedance_frac"`
	// VirtualSeconds is the simulated machine's run time, Efficiency its
	// parallel efficiency.
	VirtualSeconds float64 `json:"virtual_seconds"`
	Efficiency     float64 `json:"efficiency"`
	// Provenance: how the scheduler resolved the run.
	Cached        bool `json:"cached,omitempty"`
	FromStore     bool `json:"from_store,omitempty"`
	WarmStartHour int  `json:"warm_start_hour,omitempty"`
	PhysicsReplay bool `json:"physics_replay,omitempty"`
}

// JobView is the live view of one sweep job.
type JobView struct {
	Spec  scenario.Spec `json:"spec"`
	JobID string        `json:"job_id,omitempty"`
	State string        `json:"state"`
	Error string        `json:"error,omitempty"`
	// FailureKind classifies integrity failures: "physics" for a
	// sentinel trip (*core.PhysicsError), "watchdog" for a stuck-hour
	// cancellation (*sched.WatchdogError). Empty otherwise.
	FailureKind   string  `json:"failure_kind,omitempty"`
	Cached        bool    `json:"cached,omitempty"`
	FromStore     bool    `json:"from_store,omitempty"`
	WarmStartHour int     `json:"warm_start_hour,omitempty"`
	PhysicsReplay bool    `json:"physics_replay,omitempty"`
	PeakO3        float64 `json:"peak_o3,omitempty"`
	VirtualSecs   float64 `json:"virtual_seconds,omitempty"`
	WallSecs      float64 `json:"wall_seconds,omitempty"`
}

// Status is a point-in-time snapshot of one sweep.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"` // "running", "done" or "cancelled"
	Total int    `json:"total"`
	Seeds int    `json:"seeds"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`

	// Integrity outcomes among the failures: sentinel trips and
	// watchdog cancellations (both permanent — no retries burned).
	PhysicsFailures int `json:"physics_failures,omitempty"`
	WatchdogCancels int `json:"watchdog_cancels,omitempty"`

	// Warm-start economics of the sweep's jobs.
	CacheHits      int `json:"cache_hits"`
	StoreHits      int `json:"store_hits"`
	WarmStarts     int `json:"warm_starts"`
	PhysicsReplays int `json:"physics_replays"`

	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at,omitempty"`

	Jobs []JobView `json:"jobs"`
	// Table is the aggregate policy table, present once State is "done".
	Table      []PolicyRow `json:"table,omitempty"`
	TableError string      `json:"table_error,omitempty"`
}

// sweepState is the engine's internal record of one sweep.
type sweepState struct {
	id     string
	name   string
	specs  []scenario.Spec
	seeds  []scenario.Spec
	repair bool

	mu        sync.Mutex
	jobIDs    []string // parallel to specs; "" until submitted
	jobErrs   []string // submission errors, parallel to specs
	cancelled bool
	started   time.Time
	finished  time.Time
	table     []PolicyRow
	tableErr  string

	done chan struct{}
}

func (st *sweepState) isCancelled() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cancelled
}

// Engine expands and drives sweeps over a scheduler. Create with
// NewEngine; an Engine is safe for concurrent use.
type Engine struct {
	sched *sched.Scheduler

	mu     sync.Mutex
	sweeps map[string]*sweepState
	order  []string
	seq    int
}

// NewEngine creates a sweep engine over s.
func NewEngine(s *sched.Scheduler) *Engine {
	return &Engine{sched: s, sweeps: make(map[string]*sweepState)}
}

// Scheduler returns the engine's underlying scheduler — callers that
// drive sweeps programmatically (internal/gems) use it to fetch the
// full core.Result of a finished job, which the JSON-oriented JobView
// deliberately omits.
func (e *Engine) Scheduler() *sched.Scheduler {
	return e.sched
}

// Results returns the full core.Result of every completed job of a
// sweep, keyed by the job spec's content hash (scenario.Spec.Hash). It
// is the bulk companion of Scheduler().Status for callers — like the
// source–receptor matrix assembler — that need every run's fields, not
// the JSON JobView. Jobs still pending, failed or cancelled are simply
// absent; call after Await for the complete set.
func (e *Engine) Results(id string) (map[string]*core.Result, error) {
	e.mu.Lock()
	st, ok := e.sweeps[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	st.mu.Lock()
	ids := append([]string(nil), st.jobIDs...)
	st.mu.Unlock()
	out := make(map[string]*core.Result)
	for i, spec := range st.specs {
		if ids[i] == "" {
			continue
		}
		js, err := e.sched.Status(ids[i])
		if err != nil || js.State != sched.Done || js.Result == nil {
			continue
		}
		out[spec.Hash()] = js.Result
	}
	return out, nil
}

// Start expands the request, registers the sweep and begins driving it
// in the background; the returned status is the initial snapshot (poll
// with Status, block with Await). Expansion and validation errors are
// returned synchronously.
func (e *Engine) Start(req Request) (Status, error) {
	specs, err := req.Expand()
	if err != nil {
		return Status{}, err
	}
	if len(specs) == 0 {
		return Status{}, fmt.Errorf("sweep: request expands to no jobs")
	}
	var seeds []scenario.Spec
	if e.sched.Persistent() && !req.Repair {
		// Without a store a seed's checkpoints evaporate with the run, so
		// the pass would be pure overhead; a repair runs cold anyway.
		seeds = SeedSpecs(specs)
	}
	st := &sweepState{
		name:    req.Name,
		specs:   specs,
		seeds:   seeds,
		repair:  req.Repair,
		jobIDs:  make([]string, len(specs)),
		jobErrs: make([]string, len(specs)),
		started: time.Now(),
		done:    make(chan struct{}),
	}
	e.mu.Lock()
	e.seq++
	st.id = fmt.Sprintf("s%04d", e.seq)
	e.sweeps[st.id] = st
	e.order = append(e.order, st.id)
	e.mu.Unlock()

	go e.run(st)
	return e.snapshot(st), nil
}

// run drives one sweep to completion: seed pass, job pass, table.
func (e *Engine) run(st *sweepState) {
	defer func() {
		st.mu.Lock()
		st.finished = time.Now()
		st.mu.Unlock()
		close(st.done)
	}()

	// Seed pass: compute every shared physics prefix exactly once. Seed
	// failures are not sweep failures — the jobs just run colder.
	var seedIDs []string
	for _, seed := range st.seeds {
		if js, err := e.submit(st, seed); err == nil {
			seedIDs = append(seedIDs, js.ID)
		} else if errors.Is(err, sched.ErrShuttingDown) || errors.Is(err, errSweepCancelled) {
			break
		}
	}
	for _, id := range seedIDs {
		e.sched.Await(context.Background(), id) //nolint:errcheck // best-effort
	}

	// Job pass.
	for i, spec := range st.specs {
		js, err := e.submit(st, spec)
		st.mu.Lock()
		if err != nil {
			st.jobErrs[i] = err.Error()
		} else {
			st.jobIDs[i] = js.ID
		}
		st.mu.Unlock()
		if errors.Is(err, sched.ErrShuttingDown) || errors.Is(err, errSweepCancelled) {
			break
		}
		if err == nil && st.isCancelled() {
			// Cancel raced this submission: its jobID snapshot predates the
			// job, so sweep it up here.
			e.sched.Cancel(js.ID) //nolint:errcheck // already-terminal is fine
		}
	}
	for _, id := range st.jobIDs {
		if id != "" {
			e.sched.Await(context.Background(), id) //nolint:errcheck
		}
	}

	table, err := e.buildTable(st)
	st.mu.Lock()
	st.table = table
	if err != nil {
		st.tableErr = err.Error()
	}
	st.mu.Unlock()
}

// errSweepCancelled aborts the run loop's submission passes.
var errSweepCancelled = errors.New("sweep: cancelled")

// submit pushes one spec into the scheduler, waiting out queue-full
// backpressure (the sweep is a batch producer; blocking here is the
// correct throttle). A cancelled sweep stops submitting — including
// mid-backpressure.
func (e *Engine) submit(st *sweepState, spec scenario.Spec) (sched.JobStatus, error) {
	submit := e.sched.Submit
	if st.repair {
		submit = e.sched.Recompute
	}
	for {
		if st.isCancelled() {
			return sched.JobStatus{}, errSweepCancelled
		}
		js, err := submit(spec)
		if !errors.Is(err, sched.ErrQueueFull) {
			return js, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Cancel aborts a running sweep: jobs not yet submitted stay that way,
// and every submitted, still-live job is cancelled through the
// scheduler. Jobs that already finished keep their results — results
// are content-addressed, so a caller abandoning a sweep (e.g. a fleet
// coordinator cancelling the losing copy of a hedged shard) loses
// nothing already computed. Cancelling a finished sweep is a no-op.
func (e *Engine) Cancel(id string) error {
	e.mu.Lock()
	st, ok := e.sweeps[id]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	st.mu.Lock()
	st.cancelled = true
	ids := append([]string(nil), st.jobIDs...)
	st.mu.Unlock()
	for _, jid := range ids {
		if jid != "" {
			e.sched.Cancel(jid) //nolint:errcheck // already-terminal is fine
		}
	}
	return nil
}

// Status snapshots a sweep by ID.
func (e *Engine) Status(id string) (Status, error) {
	e.mu.Lock()
	st, ok := e.sweeps[id]
	e.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	return e.snapshot(st), nil
}

// List snapshots every sweep in start order.
func (e *Engine) List() []Status {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	e.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if s, err := e.Status(id); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// Await blocks until the sweep finishes or ctx expires.
func (e *Engine) Await(ctx context.Context, id string) (Status, error) {
	e.mu.Lock()
	st, ok := e.sweeps[id]
	e.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	select {
	case <-st.done:
		return e.snapshot(st), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// snapshot assembles the live status of one sweep.
func (e *Engine) snapshot(st *sweepState) Status {
	st.mu.Lock()
	ids := append([]string(nil), st.jobIDs...)
	errs := append([]string(nil), st.jobErrs...)
	cancelled := st.cancelled
	out := Status{
		ID:         st.id,
		Name:       st.name,
		State:      "running",
		Total:      len(st.specs),
		Seeds:      len(st.seeds),
		StartedAt:  st.started,
		FinishedAt: st.finished,
		Table:      st.table,
		TableError: st.tableErr,
	}
	st.mu.Unlock()
	select {
	case <-st.done:
		out.State = "done"
		if cancelled {
			out.State = "cancelled"
		}
	default:
	}

	out.Jobs = make([]JobView, len(st.specs))
	for i, spec := range st.specs {
		jv := JobView{Spec: spec, State: "pending"}
		switch {
		case errs[i] != "":
			jv.State = "failed"
			jv.Error = errs[i]
			out.Failed++
		case ids[i] != "":
			js, err := e.sched.Status(ids[i])
			if err != nil {
				jv.State = "failed"
				jv.Error = err.Error()
				out.Failed++
				break
			}
			jv.JobID = js.ID
			jv.State = js.State.String()
			jv.Cached = js.Cached
			jv.FromStore = js.FromStore
			jv.WarmStartHour = js.WarmStartHour
			jv.PhysicsReplay = js.PhysicsReplay
			jv.WallSecs = js.WallSeconds
			if js.Err != nil {
				jv.Error = js.Err.Error()
				var pe *core.PhysicsError
				var we *sched.WatchdogError
				switch {
				case errors.As(js.Err, &pe):
					jv.FailureKind = "physics"
					out.PhysicsFailures++
				case errors.As(js.Err, &we):
					jv.FailureKind = "watchdog"
					out.WatchdogCancels++
				}
			}
			if js.Result != nil {
				jv.PeakO3 = js.Result.PeakO3
				jv.VirtualSecs = js.Result.Ledger.Total
			}
			switch js.State {
			case sched.Done:
				out.Completed++
				if js.Cached {
					out.CacheHits++
				}
				if js.FromStore {
					out.StoreHits++
				}
				if js.PhysicsReplay {
					out.PhysicsReplays++
				} else if js.WarmStartHour > 0 {
					out.WarmStarts++
				}
			case sched.Failed:
				out.Failed++
			case sched.Cancelled:
				out.Cancelled++
			}
		}
		out.Jobs[i] = jv
	}
	return out
}

// buildTable aggregates the finished jobs into the policy table. Failed
// or cancelled jobs are skipped; an error here means the analysis layer
// itself failed.
func (e *Engine) buildTable(st *sweepState) ([]PolicyRow, error) {
	type evaluator struct {
		an     *analysis.Analyzer
		layers int
	}
	evaluators := make(map[string]evaluator)
	var rows []PolicyRow
	for i, spec := range st.specs {
		st.mu.Lock()
		id := st.jobIDs[i]
		st.mu.Unlock()
		if id == "" {
			continue
		}
		js, err := e.sched.Status(id)
		if err != nil || js.State != sched.Done || js.Result == nil {
			continue
		}
		ev, ok := evaluators[spec.Dataset]
		if !ok {
			ds, err := datasets.ByName(spec.Dataset)
			if err != nil {
				return rows, err
			}
			an, err := analysis.New(ds.Grid(), ds.Mechanism())
			if err != nil {
				return rows, err
			}
			ev = evaluator{an: an, layers: ds.Shape.Layers}
			evaluators[spec.Dataset] = ev
		}
		ex, err := ev.an.Exceedance(js.Result.Final, ev.layers, "O3", analysis.OzoneNAAQS1Hour, nil)
		if err != nil {
			return rows, err
		}
		rows = append(rows, PolicyRow{
			Spec:           spec,
			PeakO3:         js.Result.PeakO3,
			PeakCell:       js.Result.PeakO3Cell,
			ExceedanceKm2:  ex.AreaKm2,
			ExceedanceFrac: ex.AreaFrac,
			VirtualSeconds: js.Result.Ledger.Total,
			Efficiency:     js.Result.Efficiency,
			Cached:         js.Cached,
			FromStore:      js.FromStore,
			WarmStartHour:  js.WarmStartHour,
			PhysicsReplay:  js.PhysicsReplay,
		})
	}
	return rows, nil
}
