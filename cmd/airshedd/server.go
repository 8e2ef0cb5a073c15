package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"airshed/internal/fleet"
	"airshed/internal/fx"
	"airshed/internal/integrity"
	"airshed/internal/machine"
	"airshed/internal/perfmodel"
	"airshed/internal/report"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/sr"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// maxRequestBody bounds POST bodies; scenario and sweep specs are a few
// hundred bytes, so 1 MiB is generous and still starves body floods.
const maxRequestBody = 1 << 20

// decodeBody strictly decodes a bounded JSON request body into v,
// answering 413 for oversized bodies and 400 for bad JSON. Reports
// whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("%s body exceeds %d bytes", what, tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad %s JSON: %v", what, err))
		return false
	}
	return true
}

// server wires the scheduler and the analytic performance model behind
// the HTTP API.
type server struct {
	sched   *sched.Scheduler
	store   *store.Store       // nil when -store is unset
	coord   *fleet.Coordinator // nil unless -fleet-coordinator
	role    string             // "coordinator", "worker", or "" standalone
	sweeps  *sweep.Engine
	sr      *sr.Service // source–receptor matrix builds + serving
	profile bool        // expose net/http/pprof under /debug/pprof/

	// The crash-recovery journal, for /healthz warning surfacing.
	journal *resilience.Journal

	// scrub is the background store scrubber (nil when -store is unset
	// or scrubbing disabled), for /healthz freshness and /metrics.
	scrub *integrity.Scrubber
}

func newServer(s *sched.Scheduler, st *store.Store, profile bool, coord *fleet.Coordinator, role string) *server {
	sweeps := sweep.NewEngine(s)
	return &server{
		sched:   s,
		store:   st,
		coord:   coord,
		role:    role,
		sweeps:  sweeps,
		sr:      sr.NewService(sr.NewBuilder(sweeps)),
		profile: profile,
	}
}

// withJournal attaches the crash-recovery journal so /healthz can
// surface a partial-recovery warning. It may be nil.
func (s *server) withJournal(j *resilience.Journal) *server {
	s.journal = j
	return s
}

// withScrubber attaches the background store scrubber (may be nil).
func (s *server) withScrubber(sc *integrity.Scrubber) *server {
	s.scrub = sc
	return s
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleRunStream)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleSweepStream)
	// Two distinct predict paths. GET /v1/predict is "perf-predict": the
	// §4 analytic *performance* model — how long would this run take on
	// that machine. POST /v1/sr/predict is the source–receptor
	// *concentration* path — what would the air quality be under these
	// emissions, answered by matvec against a prebuilt SR matrix.
	mux.HandleFunc("GET /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/sr/build", s.handleSRBuild)
	mux.HandleFunc("POST /v1/sr/predict", s.handleSRPredict)
	mux.HandleFunc("GET /v1/sr/matrices", s.handleSRMatrices)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.coord != nil {
		// Fleet coordinator API, including the blob service workers use
		// as their store backend.
		s.coord.RegisterRoutes(mux, store.NewBlobServer(s.store))
	}
	if s.profile {
		// The explicit registrations mirror what importing net/http/pprof
		// does to http.DefaultServeMux, which this server does not use.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// submitResponse acknowledges a submission.
type submitResponse struct {
	ID        string `json:"id"`
	Hash      string `json:"hash"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	FromStore bool   `json:"from_store,omitempty"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec scenario.Spec
	if !decodeBody(w, r, &spec, "scenario") {
		return
	}
	st, err := s.sched.Submit(spec)
	if err != nil {
		if !s.admissionError(w, err) {
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	code := http.StatusAccepted
	if st.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{
		ID:        st.ID,
		Hash:      st.Hash,
		State:     st.State.String(),
		Cached:    st.Cached,
		FromStore: st.FromStore,
	})
}

// admissionError answers the scheduler's two admission refusals — 429 with
// Retry-After for a full queue, 503 for shutdown — and reports whether err
// was one of them.
func (s *server) admissionError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		// Backpressure, not failure: the client should retry once the
		// queue has drained. Retry-After comes from the scheduler's
		// perfmodel-derived estimate of the current backlog.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.sched.EstimatedWait())))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, sched.ErrShuttingDown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		return false
	}
	return true
}

// handleSweepSubmit accepts a batch study and starts it in the
// background; poll GET /v1/sweeps/{id} for progress and the aggregate
// policy table.
func (s *server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweep.Request
	if !decodeBody(w, r, &req, "sweep") {
		return
	}
	st, err := s.sweeps.Start(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sweeps.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sweeps.List())
}

// handleSweepCancel abandons a sweep's unstarted jobs (running jobs are
// cancelled where the scheduler still can). The fleet coordinator uses
// this to call off the losing copy of a hedged shard.
func (s *server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.sweeps.Cancel(r.PathValue("id")); err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statusResponse reports one job; Summary is present once the run is
// done (including cache hits).
type statusResponse struct {
	ID             string             `json:"id"`
	Hash           string             `json:"hash"`
	Spec           scenario.Spec      `json:"spec"`
	State          string             `json:"state"`
	Cached         bool               `json:"cached"`
	FromStore      bool               `json:"from_store,omitempty"`
	WarmStartHour  int                `json:"warm_start_hour,omitempty"`
	PhysicsReplay  bool               `json:"physics_replay,omitempty"`
	Attempts       int                `json:"attempts,omitempty"`
	LastError      string             `json:"last_error,omitempty"`
	Error          string             `json:"error,omitempty"`
	WallSeconds    float64            `json:"wall_seconds,omitempty"`
	VirtualSeconds float64            `json:"virtual_seconds,omitempty"`
	Summary        *report.RunSummary `json:"summary,omitempty"`
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.statusView(st))
}

// statusView renders one job status; it is shared between the poll
// endpoint and the SSE stream's terminal "status" event.
func (s *server) statusView(st sched.JobStatus) statusResponse {
	resp := statusResponse{
		ID:             st.ID,
		Hash:           st.Hash,
		Spec:           st.Spec,
		State:          st.State.String(),
		Cached:         st.Cached,
		FromStore:      st.FromStore,
		WarmStartHour:  st.WarmStartHour,
		PhysicsReplay:  st.PhysicsReplay,
		Attempts:       st.Attempts,
		WallSeconds:    st.WallSeconds,
		VirtualSeconds: st.VirtualSeconds,
	}
	if st.LastErr != nil {
		resp.LastError = st.LastErr.Error()
	}
	if st.Err != nil {
		resp.Error = st.Err.Error()
	}
	if st.Result != nil {
		resp.Summary = report.Summarize(st.Result)
	}
	return resp
}

// retryAfterSeconds converts the scheduler's backlog estimate into a
// Retry-After value: whole seconds, rounded up, never less than 1 (a
// zero would invite an immediate retry against a still-full queue).
func retryAfterSeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// srBuildResponse acknowledges an SR matrix build request.
type srBuildResponse struct {
	Key string `json:"key"`
	// State is "ready" (matrix resident/stored, usable now) or
	// "building" (perturbation runs in flight; the build's sweep is
	// visible under GET /v1/sweeps as "sr:<key prefix>").
	State string         `json:"state"`
	Info  *sr.MatrixInfo `json:"info,omitempty"`
}

// handleSRBuild launches — or attaches to — the build of the matrix an
// sr.Set describes. The call never blocks on simulation: a matrix
// already resident or stored answers 200 "ready", otherwise the build
// starts (or is already running; builds are single-flight by matrix
// key) and the answer is 202 "building". Clients poll by re-POSTing
// the same set, or watch the underlying sweep.
func (s *server) handleSRBuild(w http.ResponseWriter, r *http.Request) {
	var set sr.Set
	if !decodeBody(w, r, &set, "sr set") {
		return
	}
	if err := set.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := set.Normalize().Key()
	if m, err := s.sr.Lookup(key); err == nil {
		info := matrixInfo(m)
		writeJSON(w, http.StatusOK, srBuildResponse{Key: key, State: "ready", Info: &info})
		return
	}
	if !s.sr.Building(key) {
		go s.sr.Build(context.Background(), set) //nolint:errcheck // attachable via re-POST
	}
	writeJSON(w, http.StatusAccepted, srBuildResponse{Key: key, State: "building"})
}

func matrixInfo(m *sr.Matrix) sr.MatrixInfo {
	return sr.MatrixInfo{
		Key:       m.Key,
		Dataset:   m.Base.Dataset,
		Hours:     m.Hours,
		Groups:    m.Groups,
		Step:      m.Step,
		Receptors: m.Receptors,
		Columns:   len(m.Columns),
	}
}

// srPredictRequest names a matrix and embeds the emission query.
type srPredictRequest struct {
	MatrixKey string `json:"matrix_key"`
	sr.Query
}

// handleSRPredict answers POST /v1/sr/predict: concentrations and
// PopExp exposure for an arbitrary emission scenario via matrix–vector
// product against a built SR matrix — zero simulation per query.
func (s *server) handleSRPredict(w http.ResponseWriter, r *http.Request) {
	var req srPredictRequest
	if !decodeBody(w, r, &req, "sr predict") {
		return
	}
	p, err := s.sr.Predict(req.MatrixKey, req.Query)
	if err != nil {
		var miss *sr.ErrNoMatrix
		if errors.As(err, &miss) {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// handleSRMatrices lists the resident matrices.
func (s *server) handleSRMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sr.Matrices())
}

// predictResponse is the analytic model's answer.
type predictResponse struct {
	Machine          string             `json:"machine"`
	Nodes            int                `json:"nodes"`
	ChemistrySeconds float64            `json:"chemistry_seconds"`
	TransportSeconds float64            `json:"transport_seconds"`
	IOSeconds        float64            `json:"io_seconds"`
	AerosolSeconds   float64            `json:"aerosol_seconds"`
	CommSeconds      float64            `json:"comm_seconds"`
	CommByKind       map[string]float64 `json:"comm_by_kind"`
	TotalSeconds     float64            `json:"total_seconds"`
}

// handlePredict answers GET /v1/predict?dataset=mini&machine=t3e&nodes=16
// &hours=2[&nox_scale=..&voc_scale=..] with the Section 4 analytic
// prediction — no simulation at the requested machine/node count runs.
// The model needs the work trace of the physics (everything but machine,
// nodes and mode, which it varies analytically); the scheduler supplies it
// from what it holds of that physics, else runs it once as an ordinary
// job, so a first prediction can wait on a run — or meet a full queue.
func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := scenario.Spec{
		Dataset: q.Get("dataset"),
		Machine: q.Get("machine"),
	}
	var err error
	if spec.Nodes, err = intParam(q.Get("nodes"), 0); err != nil {
		httpError(w, http.StatusBadRequest, "bad nodes: "+err.Error())
		return
	}
	if spec.Hours, err = intParam(q.Get("hours"), 0); err != nil {
		httpError(w, http.StatusBadRequest, "bad hours: "+err.Error())
		return
	}
	if spec.NOxScale, err = floatParam(q.Get("nox_scale"), 0); err != nil {
		httpError(w, http.StatusBadRequest, "bad nox_scale: "+err.Error())
		return
	}
	if spec.VOCScale, err = floatParam(q.Get("voc_scale"), 0); err != nil {
		httpError(w, http.StatusBadRequest, "bad voc_scale: "+err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec = spec.Normalize()
	prof, err := machine.ByName(spec.Machine)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr, err := s.sched.Trace(r.Context(), spec)
	if err != nil {
		if !s.admissionError(w, err) {
			httpError(w, http.StatusInternalServerError, "tracing failed: "+err.Error())
		}
		return
	}
	pred, err := perfmodel.Predict(tr, prof, spec.Nodes)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{
		Machine:          pred.Machine,
		Nodes:            pred.Nodes,
		ChemistrySeconds: pred.Chemistry,
		TransportSeconds: pred.Transport,
		IOSeconds:        pred.IO,
		AerosolSeconds:   pred.Aerosol,
		CommSeconds:      pred.Comm,
		CommByKind:       pred.CommByKind,
		TotalSeconds:     pred.Total,
	})
}

// healthResponse reports liveness plus degradation: the daemon keeps
// serving (compute-only) while the store's circuit breaker is open, and
// /healthz says so without failing the liveness probe.
type healthResponse struct {
	Status       string `json:"status"`                  // "ok" or "degraded"
	Version      string `json:"version"`                 // build version (-ldflags "-X main.version=...")
	Store        string `json:"store,omitempty"`         // breaker state when a store is attached
	FleetRole    string `json:"fleet_role,omitempty"`    // "coordinator" or "worker"
	FleetWorkers int    `json:"fleet_workers,omitempty"` // live workers (coordinator only)
	SRMatrices   int    `json:"sr_matrices"`             // SR matrices resident in memory

	// Journal warning: non-empty when the crash-recovery replay was
	// partial (corrupt frames skipped). The daemon keeps serving — the
	// skipped work re-resolves through the store or recomputes — but
	// operators should know the WAL took damage.
	JournalWarning string `json:"journal_warning,omitempty"`

	// Admission pressure: how deep the submission queue is right now and
	// the perfmodel-derived estimate of how long a new job would wait —
	// the same figure a 429's Retry-After is cut from.
	QueueDepth           int     `json:"queue_depth"`
	EstimatedWaitSeconds float64 `json:"estimated_wait_seconds"`

	// Integrity: how stale the last completed scrub pass is (-1 before
	// the first pass; field absent when scrubbing is disabled) and how
	// many artifacts sit in the store's quarantine area.
	ScrubLastPassAgeSeconds *float64 `json:"scrub_last_pass_age_seconds,omitempty"`
	QuarantineEntries       int      `json:"quarantine_entries,omitempty"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{Status: "ok", Version: version, FleetRole: s.role}
	h.SRMatrices = s.sr.Metrics().Resident
	c := s.sched.Counters()
	h.QueueDepth = c.QueueDepth
	h.EstimatedWaitSeconds = c.EstimatedWaitSeconds
	if s.store != nil {
		h.Store = s.store.Breaker().State().String()
		if s.store.Degraded() {
			h.Status = "degraded"
		}
		h.QuarantineEntries = s.store.Counters().QuarantineEntries
	}
	if s.scrub != nil {
		age := s.scrub.Counters().LastPassAgeSeconds
		h.ScrubLastPassAgeSeconds = &age
	}
	if s.coord != nil {
		h.FleetWorkers = s.coord.Gauges().WorkersLive
	}
	if s.journal != nil {
		if warn := s.journal.Warning(); warn != nil {
			h.JournalWarning = warn.Error()
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics dumps the scheduler counters in the classic
// one-metric-per-line text format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.sched.Counters()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "airshedd_jobs_submitted_total %d\n", c.Submitted)
	fmt.Fprintf(w, "airshedd_jobs_completed_total %d\n", c.Completed)
	fmt.Fprintf(w, "airshedd_jobs_failed_total %d\n", c.Failed)
	fmt.Fprintf(w, "airshedd_jobs_cancelled_total %d\n", c.Cancelled)
	fmt.Fprintf(w, "airshedd_jobs_rejected_total %d\n", c.Rejected)
	fmt.Fprintf(w, "airshedd_jobs_coalesced_total %d\n", c.Coalesced)
	fmt.Fprintf(w, "airshedd_cache_hits_total %d\n", c.CacheHits)
	fmt.Fprintf(w, "airshedd_cache_misses_total %d\n", c.CacheMisses)
	fmt.Fprintf(w, "airshedd_cache_evictions_total %d\n", c.Evictions)
	fmt.Fprintf(w, "airshedd_cache_entries %d\n", c.CacheEntries)
	fmt.Fprintf(w, "airshedd_cache_bytes %d\n", c.CacheBytes)
	fmt.Fprintf(w, "airshedd_queue_depth %d\n", c.QueueDepth)
	fmt.Fprintf(w, "airshedd_busy_workers %d\n", c.BusyWorkers)
	fmt.Fprintf(w, "airshedd_estimated_wait_seconds %g\n", c.EstimatedWaitSeconds)
	fmt.Fprintf(w, "airshedd_store_result_hits_total %d\n", c.StoreHits)
	fmt.Fprintf(w, "airshedd_warm_starts_total %d\n", c.WarmStarts)
	fmt.Fprintf(w, "airshedd_physics_replays_total %d\n", c.PhysicsReplays)
	fmt.Fprintf(w, "airshedd_jobs_retries_total %d\n", c.Retries)
	fmt.Fprintf(w, "airshedd_jobs_panics_total %d\n", c.Panics)
	// Integrity subsystem: sentinel trips and watchdog cancels are
	// scheduler outcomes; repairs count completed recompute repairs.
	fmt.Fprintf(w, "airshedd_sentinel_trips_total %d\n", c.SentinelTrips)
	fmt.Fprintf(w, "airshedd_watchdog_cancels_total %d\n", c.WatchdogCancels)
	fmt.Fprintf(w, "airshedd_repairs_total %d\n", c.Repairs)
	if s.store != nil {
		sc := s.store.Counters()
		fmt.Fprintf(w, "airshedd_store_hits_total %d\n", sc.Hits)
		fmt.Fprintf(w, "airshedd_store_misses_total %d\n", sc.Misses)
		fmt.Fprintf(w, "airshedd_store_corrupt_total %d\n", sc.Corrupt)
		fmt.Fprintf(w, "airshedd_store_evictions_total %d\n", sc.Evictions)
		fmt.Fprintf(w, "airshedd_store_entries %d\n", sc.Entries)
		fmt.Fprintf(w, "airshedd_store_bytes %d\n", sc.Bytes)
		fmt.Fprintf(w, "airshedd_store_faults_total %d\n", sc.Faults)
		fmt.Fprintf(w, "airshedd_store_degraded_ops_total %d\n", sc.DegradedOps)
		fmt.Fprintf(w, "airshedd_store_temps_swept_total %d\n", sc.TempsSwept)
		fmt.Fprintf(w, "airshedd_quarantined_total %d\n", sc.Quarantined)
		fmt.Fprintf(w, "airshedd_quarantine_entries %d\n", sc.QuarantineEntries)
		br := s.store.Breaker()
		fmt.Fprintf(w, "airshedd_store_breaker_state %d\n", int(br.State()))
		fmt.Fprintf(w, "airshedd_store_breaker_trips_total %d\n", br.Trips())
		degraded := 0
		if s.store.Degraded() {
			degraded = 1
		}
		fmt.Fprintf(w, "airshedd_store_degraded %d\n", degraded)
	}
	if s.coord != nil {
		g := s.coord.Gauges()
		fmt.Fprintf(w, "airshedd_fleet_workers_registered %d\n", g.WorkersRegistered)
		fmt.Fprintf(w, "airshedd_fleet_workers_live %d\n", g.WorkersLive)
		fmt.Fprintf(w, "airshedd_fleet_workers_lost %d\n", g.WorkersLost)
		fmt.Fprintf(w, "airshedd_fleet_sweeps_started_total %d\n", g.SweepsStarted)
		fmt.Fprintf(w, "airshedd_fleet_sweeps_running %d\n", g.SweepsRunning)
		fmt.Fprintf(w, "airshedd_fleet_sweeps_recovered_total %d\n", g.SweepsRecovered)
		fmt.Fprintf(w, "airshedd_fleet_shards_dispatched_total %d\n", g.ShardsDispatched)
		fmt.Fprintf(w, "airshedd_fleet_shards_reassigned_total %d\n", g.ShardsReassigned)
		fmt.Fprintf(w, "airshedd_fleet_hedges %d\n", g.Hedges)
		fmt.Fprintf(w, "airshedd_fleet_breakers_open %d\n", g.BreakersOpen)
	}
	if s.scrub != nil {
		ic := s.scrub.Counters()
		fmt.Fprintf(w, "airshedd_scrub_artifacts_total %d\n", ic.Artifacts)
		fmt.Fprintf(w, "airshedd_scrub_passes_total %d\n", ic.Passes)
		fmt.Fprintf(w, "airshedd_scrub_quarantined_total %d\n", ic.Quarantined)
		fmt.Fprintf(w, "airshedd_scrub_skipped_total %d\n", ic.Skipped)
		fmt.Fprintf(w, "airshedd_scrub_repair_failures_total %d\n", ic.RepairFailures)
		fmt.Fprintf(w, "airshedd_scrub_last_pass_age_seconds %g\n", ic.LastPassAgeSeconds)
	}
	sm := s.sr.Metrics()
	fmt.Fprintf(w, "airshedd_sr_predicts_total %d\n", sm.Predicts)
	fmt.Fprintf(w, "airshedd_sr_matrix_builds_total %d\n", sm.Builds)
	fmt.Fprintf(w, "airshedd_sr_serve_seconds_sum %g\n", sm.ServeSeconds)
	fmt.Fprintf(w, "airshedd_sr_serve_seconds_count %d\n", sm.ServeCount)
	fmt.Fprintf(w, "airshedd_sr_matrices_resident %d\n", sm.Resident)
	// Host execution engine gauges. Jobs run on the process-wide shared
	// engine unless -host-workers pins dedicated per-job pools, so these
	// reflect the chunk-level parallelism underneath the scheduler's
	// job-level workers.
	es := fx.SharedEngine().Stats()
	fmt.Fprintf(w, "airshedd_engine_workers %d\n", es.Workers)
	fmt.Fprintf(w, "airshedd_engine_active_workers %d\n", es.Active)
	fmt.Fprintf(w, "airshedd_engine_chunk_queue_depth %d\n", es.Queued)
	fmt.Fprintf(w, "airshedd_engine_chunks_total %d\n", es.Chunks)
	fmt.Fprintf(w, "airshedd_engine_runs_total %d\n", es.Runs)
	fmt.Fprintf(w, "airshedd_engine_panics_total %d\n", es.Panics)
}

// intParam parses an integer query parameter; empty means def.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// floatParam parses a float query parameter; empty means def.
func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
