// Package sched is the concurrent execution engine of the scenario
// service: a bounded worker pool that runs core simulations from a FIFO
// queue, coalesces duplicate in-flight scenarios into a single
// execution, and serves repeated scenarios from an LRU result cache
// keyed by the scenario content hash (package scenario).
//
// The design target is the ROADMAP's serving workload: many clients
// submitting overlapping what-if scenarios (emission-control sweeps,
// machine/node sweeps) where the same run is requested far more often
// than it is unique. Submissions resolve in one of five ways, and the
// counters partition exactly along those lines:
//
//   - cache hit: the scenario already completed; a finished job is
//     returned immediately, sharing the cached result;
//   - coalesced: an identical scenario is queued or running; the caller
//     is attached to that job (same job ID) instead of enqueueing a
//     duplicate — the single-flight guarantee;
//   - store hit: the scenario completed in a previous process and its
//     row survives in the persistent artifact store (Options.Store) with
//     the physics it names held whole; the result is assembled from the
//     two, promoted into the LRU cache and returned as a finished job —
//     daemon restarts do not forget completed scenarios;
//   - cache miss: the scenario is enqueued (an integrity repair is a
//     forced miss: it skips the two held-result outcomes above);
//   - rejected: the bounded queue is at depth and the submission is
//     refused with ErrQueueFull.
//
// A store additionally warm-starts the runs themselves: executed jobs
// persist hourly checkpoints and per-hour physics records keyed by the
// scenario physics-prefix hash, and new jobs resume from the longest
// stored prefix via core.RestartContext — or skip simulation entirely
// when the whole run's physics is on record, or already held by a cached
// result of the same physics (see warm.go). A row whose physics is gone
// (evicted, quarantined, never written) is a miss like any other and
// resolves down that same ladder.
//
// Every job carries a context cancelled by Cancel, by the per-job
// timeout, or by scheduler shutdown-with-deadline; the core driver
// checks it between time steps, so cancellation lands mid-run. Shutdown
// without a deadline drains: queued jobs still execute (the SIGTERM
// behaviour of cmd/airshedd).
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/perfmodel"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/store"
)

// Sentinel errors returned by Submit and friends.
var (
	// ErrQueueFull rejects a submission when the FIFO queue is at depth.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrShuttingDown rejects submissions after Shutdown has begun.
	ErrShuttingDown = errors.New("sched: shutting down")
	// ErrUnknownJob reports a job ID the scheduler has never issued.
	ErrUnknownJob = errors.New("sched: unknown job")
	// ErrJobFinished reports a Cancel on an already-finished job.
	ErrJobFinished = errors.New("sched: job already finished")
)

// State is a job's lifecycle position.
type State int

const (
	// Queued means the job is waiting in the FIFO queue.
	Queued State = iota
	// Running means a worker is executing the simulation.
	Running
	// Done means the run completed and the result is available.
	Done
	// Failed means the run returned an error (including timeout).
	Failed
	// Cancelled means the job was cancelled before or during the run.
	Cancelled
)

// String names the state for reports and JSON.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Options configures a Scheduler. Zero values take the documented
// defaults.
type Options struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the FIFO queue (default 32). A full queue
	// rejects submissions with ErrQueueFull rather than blocking the
	// caller — backpressure belongs at the edge.
	QueueDepth int
	// CacheEntries caps the result cache by entry count (default 64;
	// negative disables caching).
	CacheEntries int
	// CacheBytes caps the cache by approximate result bytes (default
	// 512 MiB; 0 means the default, negative means unlimited).
	CacheBytes int64
	// JobTimeout bounds each run's execution time once it starts
	// (0 = no timeout). The deadline lives on the job context, so the
	// core driver observes it between time steps; a timed-out job fails
	// with context.DeadlineExceeded.
	JobTimeout time.Duration
	// Ignored: every run executes on the host engine. The field survives
	// only because the frozen bench/ sources still set it, and goes away
	// with the next benchmark PR.
	GoParallel bool
	// HostWorkers sizes each run's host execution engine, with
	// core.Config.HostWorkers semantics: 0 shares the process-wide
	// GOMAXPROCS pool across all concurrent jobs (the default — total
	// host parallelism stays at the machine size no matter how many
	// jobs run), > 0 gives every job its own dedicated pool of that
	// size. Negative values fail every job at core.Config.Validate.
	// Does not affect results.
	HostWorkers int
	// Store, when non-nil, backs the scheduler with a persistent
	// artifact store: completed results survive process restarts, and
	// runs warm-start from stored checkpoints of matching physics
	// prefixes. Nil disables persistence (in-memory LRU only).
	Store *store.Store
	// Retry governs re-execution of transiently-failed runs (I/O
	// hiccups, injected faults): capped exponential backoff with
	// deterministic jitter. The zero value means the resilience
	// defaults (3 attempts, 25ms base, 2s cap, jitter 0.5). Permanent
	// failures — bad specs, panics, cancellation — never retry.
	Retry resilience.RetryPolicy
	// Journal, when non-nil, write-ahead-logs every enqueued job
	// (id + spec JSON, fsynced before Submit returns) and retires the
	// entry on the job's terminal state. After a crash its pending set
	// holds exactly the accepted-but-unfinished jobs; Recover re-submits
	// them. The journal may be shared with other writers (the fleet
	// coordinator's sweeps): the scheduler's records are the job IDs it
	// issues, and Recover touches no other.
	Journal *resilience.Journal
	// WatchdogFactor arms the stuck-hour watchdog: a running job that
	// completes no hour within factor × its per-hour estimate (floored
	// at WatchdogFloor) is cancelled with a stack-dump diagnostic
	// (*WatchdogError) instead of pinning a worker slot forever. 0
	// disables the watchdog.
	WatchdogFactor float64
	// WatchdogFloor is the minimum stuck-hour bound (default 5s):
	// estimates for tiny jobs are noise-dominated, and a floor keeps
	// scheduling jitter from cancelling healthy runs.
	WatchdogFloor time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 32
	}
	switch {
	case o.CacheEntries < 0:
		o.CacheEntries = 0
	case o.CacheEntries == 0:
		o.CacheEntries = 64
	}
	switch {
	case o.CacheBytes < 0:
		o.CacheBytes = 0 // unlimited
	case o.CacheBytes == 0:
		o.CacheBytes = 512 << 20
	}
	if o.Retry == (resilience.RetryPolicy{}) {
		// The zero policy takes the full defaults including jitter
		// (an explicitly-set policy with Jitter 0 stays unjittered).
		o.Retry = resilience.RetryPolicy{Jitter: 0.5}
	}
	o.Retry = o.Retry.WithDefaults()
	if o.WatchdogFloor <= 0 {
		o.WatchdogFloor = 5 * time.Second
	}
	return o
}

// Counters is a point-in-time snapshot of the scheduler's metrics.
// Submitted = CacheHits + StoreHits + Coalesced + CacheMisses +
// Rejected: every submission resolves to exactly one of those outcomes,
// and every cache-missed job eventually lands in Completed, Failed or
// Cancelled. Of the completed executions, WarmStarts resumed from a
// stored checkpoint mid-run and PhysicsReplays skipped simulation
// entirely (full physics on record); the rest ran cold.
type Counters struct {
	Submitted   uint64
	Completed   uint64
	Failed      uint64
	Cancelled   uint64
	Rejected    uint64
	Coalesced   uint64
	CacheHits   uint64
	CacheMisses uint64
	Evictions   uint64

	// Persistent-store outcomes (all zero without Options.Store).
	StoreHits      uint64
	WarmStarts     uint64
	PhysicsReplays uint64
	// Repersisted counts results whose original store write failed and
	// that a later cache hit successfully wrote back.
	Repersisted uint64

	// Resilience outcomes: Retries counts re-executions after a
	// transient failure; Panics counts sim-worker panics contained
	// into job failures.
	Retries uint64
	Panics  uint64

	// Integrity outcomes: SentinelTrips counts jobs failed by a physics
	// sentinel (*core.PhysicsError — permanent, zero retries consumed);
	// WatchdogCancels counts jobs the stuck-hour watchdog cancelled;
	// Repairs counts completed integrity-repair recomputes (Recompute).
	SentinelTrips   uint64
	WatchdogCancels uint64
	Repairs         uint64

	// Gauges.
	QueueDepth   int
	BusyWorkers  int
	CacheEntries int
	CacheBytes   int64
	// Unpersisted is the number of completed results currently living
	// only in the cache (their store write failed and no cache hit has
	// re-persisted them yet).
	Unpersisted int

	// EstimatedWaitSeconds is the admission-control estimate: how long a
	// job enqueued now would wait before a worker picks it up, from the
	// perfmodel cost of the queued and running work priced at the
	// observed execution rate (see EstimatedWait).
	EstimatedWaitSeconds float64
}

// job is the scheduler's internal job record; all mutable fields are
// guarded by the scheduler mutex.
type job struct {
	id   string
	hash string
	spec scenario.Spec
	cost float64 // perfmodel a-priori cost (0 when the estimate failed)

	state     State
	cached    bool
	fromStore bool
	warmHour  int  // absolute hour execution resumed from held physics (0 = cold)
	repair    bool // integrity repair: bypass caches and warm starts
	attempts  int
	lastErr   error
	err       error
	result    *core.Result
	journaled bool // WAL Accept completed; terminal states must retire it

	// lastProgress is the watchdog's liveness mark: set when execution
	// starts (and on each retry attempt) and on every hour event.
	lastProgress time.Time
	// watchdogErr is the stuck-hour diagnostic when the watchdog
	// cancelled this job; it replaces the run's cancellation error.
	watchdogErr error

	// events is the per-hour progress stream (Watch); changed is closed
	// and replaced on every append, and closed for good on the terminal
	// state (nil from then on).
	events  []HourEvent
	changed chan struct{}

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	done   chan struct{} // closed on terminal state
}

// HourEvent is one entry of a job's progress stream: a simulated hour
// completed (or was served from stored physics). Seq numbers events from
// 0 within the job — a retry keeps appending, so consumers see the rerun
// hours again with a higher Attempt.
type HourEvent struct {
	// Seq is the event's index in the job's stream.
	Seq int `json:"seq"`
	// Hour is the absolute simulated hour the event reports.
	Hour int `json:"hour"`
	// PeakO3/PeakCell are the hour's ground-layer ozone maximum and its
	// cell; Steps the hour's inner step count.
	PeakO3   float64 `json:"peak_o3"`
	PeakCell int     `json:"peak_cell"`
	Steps    int     `json:"steps"`
	// Attempt is the execution attempt that produced the event (1-based;
	// 0 for events synthesized from a finished result).
	Attempt int `json:"attempt,omitempty"`
	// Stored marks hours served from stored physics (warm-start prefix,
	// physics replay, cache/store hits) rather than simulated now.
	Stored bool `json:"stored,omitempty"`
}

// JobStatus is an immutable snapshot of one job, safe to hold across
// scheduler operations. Result is shared (do not modify) and only
// non-nil once State == Done.
type JobStatus struct {
	ID     string
	Hash   string
	Spec   scenario.Spec
	State  State
	Cached bool
	Err    error
	Result *core.Result

	// FromStore marks a submission served from the persistent store
	// rather than the in-memory cache. WarmStartHour is the absolute
	// hour an executed run resumed from a stored checkpoint (0 = cold
	// start); PhysicsReplay marks a run materialised from stored
	// physics without simulating.
	FromStore     bool
	WarmStartHour int
	PhysicsReplay bool

	// Attempts is the number of executions so far (1 for a clean run,
	// more after transient-failure retries; 0 for cache/store hits).
	// LastErr is the most recent transient failure that triggered a
	// retry — set even while the job is still running or if it later
	// succeeded.
	Attempts int
	LastErr  error

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	// WallSeconds is the real execution time of the run (0 until it
	// finishes; 0 forever for cache hits — that is the point).
	WallSeconds float64
	// VirtualSeconds is the simulated machine's execution time
	// (Result.Ledger.Total) once the run is done.
	VirtualSeconds float64
}

// Scheduler runs scenarios on a bounded worker pool with single-flight
// dedup and an LRU result cache. Create with New, stop with Shutdown.
type Scheduler struct {
	opts Options

	mu       sync.Mutex
	jobs     map[string]*job // by job ID
	inflight map[string]*job // by scenario hash; queued or running
	cache    *resultCache
	counters Counters
	seq      uint64
	closed   bool

	// unpersisted remembers completed results whose store write failed:
	// they exist only in the LRU cache, so without this a later cache
	// hit would serve them forever while the store — the thing a fleet
	// coordinator reconciles against after a crash — never learns them.
	// A cache hit on a remembered hash re-issues the write.
	unpersisted map[string]struct{}

	// Admission-control accounting (guarded by mu): perfmodel cost of
	// queued and running work, and the completed-execution totals that
	// calibrate cost units to wall seconds.
	queuedCost  float64
	runningCost float64
	doneCost    float64
	doneWall    float64

	queue   chan *job
	wg      sync.WaitGroup
	baseCtx context.Context
	stopAll context.CancelFunc
}

// New starts a scheduler with opts' worker pool.
func New(opts Options) *Scheduler {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:        opts,
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		cache:       newResultCache(opts.CacheEntries, opts.CacheBytes),
		unpersisted: make(map[string]struct{}),
		queue:       make(chan *job, opts.QueueDepth),
		baseCtx:     ctx,
		stopAll:     cancel,
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit resolves a scenario submission: cache hit, coalesce onto the
// in-flight twin, store hit, or enqueue. The returned status is the job
// to poll; errors are validation failures, ErrQueueFull or
// ErrShuttingDown.
func (s *Scheduler) Submit(spec scenario.Spec) (JobStatus, error) { return s.admit(spec, false) }

// admit is the one admission path, behind Submit and Recompute. repair
// bypasses the held-result rungs — the result cache and the stored
// result — so the spec is enqueued even though its answer is on hand; an
// in-flight twin still coalesces, and repair jobs are not journaled (a
// crash loses at most a rebuild of redundant state).
func (s *Scheduler) admit(spec scenario.Spec, repair bool) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	spec = spec.Normalize()
	hash := spec.Hash()
	cost := estimateCost(spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrShuttingDown
	}
	s.counters.Submitted++
	if st, ok := s.attachLocked(spec, hash, repair); ok {
		return st, nil
	}

	// Persistent store: the read does disk I/O and CRC verification, so
	// release the lock and re-resolve afterwards — the world may have
	// moved (shutdown begun, a twin enqueued, the cache filled). The row's
	// physics comes through lookup: pricings of one physics restored in
	// turn share the first one's Final, not a checkpoint decode each.
	if s.opts.Store != nil && !repair {
		s.mu.Unlock()
		stored, found := s.opts.Store.Restore(hash, func(*store.SpecManifest) ([]*store.PhysicsRecord, []float64) {
			ds, err := datasets.ByName(spec.Dataset)
			if err != nil {
				return nil, nil
			}
			h := s.lookup(spec, ds.Shape, false)
			return h.hours, h.final
		})
		s.mu.Lock()
		if s.closed {
			s.counters.Submitted-- // the submission never happened
			return JobStatus{}, ErrShuttingDown
		}
		if st, ok := s.attachLocked(spec, hash, repair); ok {
			return st, nil
		}
		if found {
			s.counters.StoreHits++
			s.cache.put(hash, physicsKey(spec), stored)
			return s.finishedLocked(spec, hash, stored, true), nil
		}
	}

	j := s.newJobLocked(spec, hash)
	j.cost = cost
	j.repair = repair
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id) // a rejected job never existed
		s.counters.Rejected++
		return JobStatus{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.opts.QueueDepth)
	}
	s.counters.CacheMisses++
	s.queuedCost += j.cost
	s.inflight[hash] = j
	st := j.statusLocked()
	if s.opts.Journal == nil || repair {
		return st, nil
	}
	payload, merr := json.Marshal(spec)

	// Write-ahead, outside s.mu: Accept fsyncs, and holding the global
	// lock across a disk flush would stall every scheduler operation
	// behind slow storage. The job is on disk before Submit returns, so
	// a crash between acceptance and completion still cannot lose it. A
	// journal failure is not a submission failure — the job runs either
	// way, it just loses crash protection.
	s.mu.Unlock()
	journaled := false
	if merr == nil {
		journaled = s.opts.Journal.Accept(j.id, payload) == nil
	}
	s.mu.Lock()
	if !journaled {
		return st, nil
	}
	// Handshake with finalize: a worker may have finished the job while
	// Accept was in flight, in which case finalizeLocked saw
	// j.journaled == false and skipped the retire — it is ours to do.
	j.journaled = true
	if j.state.Terminal() {
		s.mu.Unlock()
		_ = s.opts.Journal.Done(j.id)
		s.mu.Lock()
	}
	return st, nil
}

// attachLocked resolves a submission against what the process holds right
// now: the cached result (a finished job sharing it) or the in-flight
// twin. admit asks before and again after its off-lock store read; s.mu
// held.
func (s *Scheduler) attachLocked(spec scenario.Spec, hash string, repair bool) (JobStatus, bool) {
	if !repair {
		if res, ok := s.cache.get(hash); ok {
			s.counters.CacheHits++
			s.repersistLocked(spec, hash, res)
			return s.finishedLocked(spec, hash, res, false), true
		}
	}
	// Single-flight: attach to the queued/running twin.
	if twin, ok := s.inflight[hash]; ok {
		s.counters.Coalesced++
		return twin.statusLocked(), true
	}
	return JobStatus{}, false
}

// finishedLocked issues an already-finished job sharing a held result —
// the one way a cache or store hit becomes a job; s.mu held.
func (s *Scheduler) finishedLocked(spec scenario.Spec, hash string, res *core.Result, fromStore bool) JobStatus {
	j := s.newJobLocked(spec, hash)
	j.state = Done
	j.cached = true
	j.fromStore = fromStore
	j.result = res
	j.finished = j.submitted
	j.changed = nil // no live events; Watch synthesizes from the result
	close(j.done)
	return j.statusLocked()
}

// Recover re-submits the jobs a crashed predecessor accepted but never
// finished: every pending journal record whose ID the scheduler issues
// (jobSeq), in ID order. Each re-submission journals itself under a fresh
// job ID (or resolves at once from the store, if the old process
// finished the run before dying), after which the stale record retires;
// an undecodable one retires unread. A submission the full queue refuses
// stays pending for the next restart. Records of other writers sharing
// the journal are left alone. Returns the number re-submitted; call once,
// before serving traffic.
//
// The ID sequence is first advanced past every pending job ID: a fresh
// boot otherwise restarts at j000001, a re-submission could journal
// itself under the ID of a stale record, and that record's Done would
// then retire the new one — a second crash would lose the job.
func (s *Scheduler) Recover() (int, error) {
	if s.opts.Journal == nil {
		return 0, nil
	}
	pending := s.opts.Journal.Pending()
	var ids []string
	s.mu.Lock()
	for id := range pending {
		if n, ok := jobSeq(id); ok {
			ids = append(ids, id)
			s.seq = max(s.seq, n)
		}
	}
	s.mu.Unlock()
	sort.Strings(ids)
	resubmitted := 0
	for _, id := range ids {
		var spec scenario.Spec
		if err := json.Unmarshal(pending[id], &spec); err != nil {
			_ = s.opts.Journal.Done(id) // unreadable: nothing to recover
			continue
		}
		_, err := s.Submit(spec)
		if errors.Is(err, ErrShuttingDown) {
			return resubmitted, err
		}
		if err != nil {
			continue // refused: stays pending for the next restart
		}
		resubmitted++
		_ = s.opts.Journal.Done(id)
	}
	return resubmitted, nil
}

// jobSeq parses a job ID as newJobLocked issues it, "j" + sequence.
func jobSeq(id string) (uint64, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, ok && err == nil
}

// newJobLocked allocates and registers a job record; s.mu held.
func (s *Scheduler) newJobLocked(spec scenario.Spec, hash string) *job {
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%06d", s.seq),
		hash:      hash,
		spec:      spec,
		state:     Queued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		changed:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// Status snapshots a job by ID.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.statusLocked(), nil
}

// Await blocks until the job reaches a terminal state or ctx expires,
// then returns its final status.
func (s *Scheduler) Await(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// awaitResult is Await for callers that want the run, not the job: the
// result, or why there is none.
func (s *Scheduler) awaitResult(ctx context.Context, id string) (*core.Result, error) {
	fin, err := s.Await(ctx, id)
	if err != nil {
		return nil, err
	}
	if fin.State != Done {
		return nil, fmt.Errorf("sched: job %s %s: %w", fin.ID, fin.State, fin.Err)
	}
	return fin.Result, nil
}

// closedChan is a permanently-closed channel for watchers of finished
// jobs: selecting on it never blocks.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Watch returns a job's hour events from index from on, its current
// status, and a channel closed when the stream moves — another event
// arrives or the job reaches a terminal state. The streaming consumer
// loop: emit the events, stop if the status is terminal, otherwise wait
// on the channel and call Watch again with the advanced index. For jobs
// that finished without executing (cache and store hits), the events are
// synthesized from the result with Stored set.
func (s *Scheduler) Watch(id string, from int) ([]HourEvent, JobStatus, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	events := j.eventsLocked()
	if from < 0 {
		from = 0
	}
	var tail []HourEvent
	if from < len(events) {
		tail = append([]HourEvent(nil), events[from:]...)
	}
	ch := j.changed
	if ch == nil {
		ch = closedChan
	}
	return tail, j.statusLocked(), ch, nil
}

// eventsLocked returns the job's event stream — for a hit, which never
// executed, one synthesized from the result it shares; s.mu held.
func (j *job) eventsLocked() []HourEvent {
	if len(j.events) > 0 || !j.state.Terminal() || j.result == nil {
		return j.events
	}
	recs := hourRecords(j.result)
	evs := make([]HourEvent, len(recs))
	for i, rec := range recs {
		evs[i] = storedEvent(j.spec.StartHour+i, rec)
		evs[i].Seq = i
	}
	return evs
}

// appendHourEvent adds one hour to a running job's progress stream,
// numbering it and stamping the attempt, and wakes its watchers. Called
// from the run's driver goroutine (core.Config.OnHourEnd) for simulated
// hours and from carryOut for held ones.
func (s *Scheduler) appendHourEvent(j *job, ev HourEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() || j.changed == nil {
		return
	}
	j.lastProgress = time.Now() // watchdog liveness mark
	ev.Seq, ev.Attempt = len(j.events), j.attempts
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// physicsKey is the result cache's second key: the whole run's prefix
// hash, shared by specs differing only in machine, node count or mode.
func physicsKey(spec scenario.Spec) string { return spec.PhysicsPrefixHash(spec.EndHour()) }

// estimateCost resolves a spec's perfmodel a-priori cost; a failed
// estimate contributes nothing to admission accounting.
func estimateCost(spec scenario.Spec) float64 {
	c, err := perfmodel.CostEstimate(spec)
	if err != nil {
		return 0
	}
	return c
}

// EstimatedWait estimates how long a job enqueued now would wait before
// a worker picks it up: the perfmodel cost of all queued and running
// work, priced at the observed wall-seconds-per-cost-unit of completed
// executions (before any completion, at the Go host's nominal flop
// time), spread across the worker pool. This is the Retry-After the
// admission layer attaches to 429 responses — deliberately a-priori and
// cheap, not a schedule simulation.
func (s *Scheduler) EstimatedWait() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimatedWaitLocked()
}

func (s *Scheduler) estimatedWaitLocked() time.Duration {
	rate := s.rateLocked()
	pending := s.queuedCost + s.runningCost
	if pending < 0 {
		pending = 0 // float residue from add/remove churn
	}
	secs := pending * rate / float64(s.opts.Workers)
	return time.Duration(secs * float64(time.Second))
}

// Cancel cancels a job: a queued job is finalised immediately, a running
// job has its context cancelled and finalises when the driver notices
// (within one time step). Cancelling a finished job returns
// ErrJobFinished.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case Queued:
		// The worker will skip it when dequeued.
		retire := s.finalizeLocked(j, Cancelled, nil, context.Canceled)
		s.mu.Unlock()
		if retire {
			_ = s.opts.Journal.Done(j.id)
		}
		return nil
	case Running:
		j.cancel()
		s.mu.Unlock()
		return nil
	default:
		err := fmt.Errorf("%w: %q is %s", ErrJobFinished, id, j.state)
		s.mu.Unlock()
		return err
	}
}

// Persistent reports whether the scheduler is backed by an artifact
// store (results survive restarts, runs warm-start).
func (s *Scheduler) Persistent() bool { return s.opts.Store != nil }

// Store returns the scheduler's artifact store, or nil when it runs
// compute-only. Layers above the scheduler (sweep, sr) use it to read
// and persist their own artifact kinds next to the run results.
func (s *Scheduler) Store() *store.Store { return s.opts.Store }

// repersistLocked re-issues the failed row write of a cached result
// (s.mu held; the write itself runs off-lock). The hash is removed from
// the unpersisted set before the attempt so concurrent cache hits don't
// pile up duplicate writers, and put back if the store fails again.
func (s *Scheduler) repersistLocked(spec scenario.Spec, hash string, res *core.Result) {
	if s.opts.Store == nil {
		return
	}
	if _, ok := s.unpersisted[hash]; !ok {
		return
	}
	delete(s.unpersisted, hash)
	go func() {
		if err := s.persistRow(spec, hash, res); err != nil {
			s.mu.Lock()
			s.unpersisted[hash] = struct{}{}
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		s.counters.Repersisted++
		s.mu.Unlock()
	}()
}

// Counters snapshots the metrics.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters
	c.QueueDepth = len(s.queue)
	c.Evictions = s.cache.evictions
	c.CacheEntries = s.cache.len()
	c.CacheBytes = s.cache.bytes
	c.Unpersisted = len(s.unpersisted)
	c.EstimatedWaitSeconds = s.estimatedWaitLocked().Seconds()
	return c
}

// Shutdown stops intake and waits for the pool to finish. Queued jobs
// are drained (executed), matching the daemon's SIGTERM contract; if ctx
// expires first, all remaining jobs are cancelled and Shutdown waits for
// the workers to observe that, returning ctx's error. Shutdown is
// idempotent only in effect — call it once.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue) // Submit checks closed under mu, so no send can race
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stopAll() // cancel every running job's context
		<-done
		return ctx.Err()
	}
}

// worker executes jobs from the queue until it closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end.
func (s *Scheduler) runJob(j *job) {
	s.mu.Lock()
	if j.state != Queued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	// JobTimeout lives on the job context, so it propagates through
	// executeJob into core.RunContext and the driver observes it between
	// time steps.
	var ctx context.Context
	var cancel context.CancelFunc
	if s.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.opts.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.state = Running
	j.started = time.Now()
	j.lastProgress = j.started
	j.cancel = cancel
	s.counters.BusyWorkers++
	s.queuedCost -= j.cost
	s.runningCost += j.cost
	watchBound := s.watchdogBoundLocked(j)
	s.mu.Unlock()
	defer cancel()

	if watchBound > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go s.watchJob(ctx, cancel, j, watchBound, stop)
	}

	// Transient failures (I/O hiccups, injected faults) re-execute under
	// capped exponential backoff; permanent failures (bad specs, panics,
	// cancellation) surface immediately. The jitter is deterministic per
	// (seed, job hash, attempt), so a fixed fault seed reproduces the
	// whole schedule.
	var (
		res      *core.Result
		warmHour int
	)
	_, err := resilience.Retry(ctx, s.opts.Retry, resilience.HashKey(j.hash), func(attempt int) (err error) {
		s.mu.Lock()
		j.attempts = attempt
		j.lastProgress = time.Now() // each attempt restarts the watchdog clock
		s.mu.Unlock()
		res, warmHour, err = s.executeJob(ctx, j)
		return err
	}, func(_ int, err error) {
		// Visible to a status poll for the whole backoff wait.
		s.mu.Lock()
		s.counters.Retries++
		j.lastErr = err
		s.mu.Unlock()
	})
	if err == nil && s.opts.Store != nil {
		// The job's one write of its own, the row (its physics went to
		// the store hour by hour, or was there already), outside the
		// scheduler lock; a failure costs future restarts their head
		// start, so remember the hash — the next cache hit re-issues the
		// write (see repersistLocked).
		perr := s.persistRow(j.spec, j.hash, res)
		s.mu.Lock()
		if perr != nil {
			s.unpersisted[j.hash] = struct{}{}
		} else {
			delete(s.unpersisted, j.hash)
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.counters.BusyWorkers--
	if err != nil && j.watchdogErr != nil {
		// The run died of the watchdog's cancellation: surface the
		// stuck-hour diagnostic, not the bare context error.
		err = j.watchdogErr
	}
	if err != nil {
		var pe *core.PhysicsError
		if errors.As(err, &pe) {
			s.counters.SentinelTrips++
		}
	}
	var retire bool
	switch {
	case err == nil:
		j.warmHour = warmHour
		if j.replayed() {
			s.counters.PhysicsReplays++
		} else if warmHour > 0 {
			s.counters.WarmStarts++
		}
		if !j.replayed() && j.cost > 0 {
			// Calibrate the admission estimate on real executions (a
			// physics replay's near-zero wall time would skew it).
			s.doneCost += j.cost
			s.doneWall += time.Since(j.started).Seconds()
		}
		if j.repair {
			s.counters.Repairs++
		}
		s.cache.put(j.hash, physicsKey(j.spec), res)
		retire = s.finalizeLocked(j, Done, res, nil)
	case errors.Is(err, context.Canceled):
		retire = s.finalizeLocked(j, Cancelled, nil, err)
	default:
		retire = s.finalizeLocked(j, Failed, nil, err)
	}
	s.mu.Unlock()
	if retire {
		_ = s.opts.Journal.Done(j.id)
	}
}

// finalizeLocked moves a job to a terminal state; s.mu held. It returns
// whether the caller must retire the job's journal entry — Done fsyncs,
// so it happens after the lock is released, never under it. Terminal is
// terminal for every state: a cancelled or failed job must not be
// resurrected by the next restart. A false return means either no
// journaling, or the WAL Accept is still in flight — in that case the
// submitting goroutine observes the terminal state and retires the
// entry itself (see Submit).
func (s *Scheduler) finalizeLocked(j *job, st State, res *core.Result, err error) (retire bool) {
	if j.state.Terminal() {
		return false
	}
	switch j.state {
	case Queued:
		s.queuedCost -= j.cost
	case Running:
		s.runningCost -= j.cost
	}
	j.state = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	delete(s.inflight, j.hash)
	switch st {
	case Done:
		s.counters.Completed++
	case Failed:
		s.counters.Failed++
	case Cancelled:
		s.counters.Cancelled++
	}
	close(j.done)
	if j.changed != nil {
		close(j.changed) // wake watchers for the terminal status
		j.changed = nil
	}
	return s.opts.Journal != nil && j.journaled
}

// replayed reports whether the job simulated nothing: held physics took it
// all the way to the end of the run; scheduler mutex held.
func (j *job) replayed() bool { return j.warmHour == j.spec.EndHour() }

// statusLocked snapshots the job; scheduler mutex held.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:            j.id,
		Hash:          j.hash,
		Spec:          j.spec,
		State:         j.state,
		Cached:        j.cached,
		FromStore:     j.fromStore,
		WarmStartHour: j.warmHour,
		PhysicsReplay: j.replayed(),
		Attempts:      j.attempts,
		LastErr:       j.lastErr,
		Err:           j.err,
		SubmittedAt:   j.submitted,
		StartedAt:     j.started,
		FinishedAt:    j.finished,
	}
	if j.state.Terminal() {
		st.Result = j.result
		if !j.started.IsZero() {
			st.WallSeconds = j.finished.Sub(j.started).Seconds()
		}
		if j.result != nil {
			st.VirtualSeconds = j.result.Ledger.Total
		}
	}
	return st
}
