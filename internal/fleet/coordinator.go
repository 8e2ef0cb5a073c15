package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"airshed/internal/machine"
	"airshed/internal/perfmodel"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// ErrUnknownWorker reports a heartbeat from a worker that never
// registered (e.g. the coordinator restarted); the agent re-registers
// when it sees this.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// ErrUnknownSweep reports a fleet sweep ID the coordinator never issued.
var ErrUnknownSweep = errors.New("fleet: unknown sweep")

// ErrNoWorkers reports a sweep submitted while no live worker is
// registered.
var ErrNoWorkers = errors.New("fleet: no live workers registered")

// Options tunes the coordinator; zero values take the defaults noted.
type Options struct {
	// HeartbeatTimeout declares a worker lost when its last heartbeat is
	// older than this (default 10s).
	HeartbeatTimeout time.Duration
	// PollInterval is the shard progress poll cadence (default 500ms).
	PollInterval time.Duration
	// PollFailures is how many consecutive failed shard polls declare
	// the worker lost, independent of heartbeats (default 3).
	PollFailures int
	// Client is the HTTP client for dispatch and polling; nil gets a
	// 30s-timeout default.
	Client *http.Client
	// Logf, when set, receives one line per fleet event (registration,
	// dispatch, loss, reassignment, hedge, recovery).
	Logf func(format string, args ...any)

	// Journal, when set, makes sweep state durable: submissions, shard
	// assignments and completions are written ahead (CRC-framed,
	// fsynced), so a coordinator killed mid-sweep resumes its sweeps on
	// restart via Recover. It may be the scheduler's journal: the
	// coordinator writes and recovers only "fs:" and "sh:" records.
	Journal *resilience.Journal
	// Store, when set, lets Recover resolve journaled specs against the
	// artifact store: specs whose results already persisted count as
	// completed without re-dispatch.
	Store *store.Store
	// Retry is the dispatch retry policy (deterministic jitter; zero
	// value takes the resilience defaults).
	Retry resilience.RetryPolicy
	// BreakerThreshold and BreakerCooldown tune the per-worker dispatch
	// circuit breakers (zero values take the resilience defaults). A
	// worker whose breaker is open is skipped by the packer until its
	// cooldown admits a probe dispatch.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// HedgeFactor controls straggler hedging: a running shard whose age
	// exceeds HedgeFactor × its perfmodel-estimated duration (floored at
	// HedgeMinDelay) is speculatively re-dispatched to an idle worker.
	// 0 takes the default (4); negative disables hedging.
	HedgeFactor float64
	// HedgeMinDelay floors the hedge deadline so short shards are never
	// hedged on estimate noise (default 5s).
	HedgeMinDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.PollFailures <= 0 {
		o.PollFailures = 3
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	o.Retry = o.Retry.WithDefaults()
	if o.HedgeFactor == 0 {
		o.HedgeFactor = 4
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 5 * time.Second
	}
	return o
}

// workerState is one registry entry.
type workerState struct {
	RegisterRequest
	profile     *machine.Profile
	registered  time.Time
	lastSeen    time.Time
	lost        bool
	queueDepth  int
	busyWorkers int
	// quarantined is the worker's cumulative quarantined-artifact count
	// from its latest heartbeat: non-zero marks a sick store, which
	// halves the worker's packing weight (Capacity.Sick).
	quarantined uint64
}

// shard is one dispatched unit of a fleet sweep.
type shard struct {
	seq       int // journal sequence, unique within the sweep
	worker    string
	url       string
	specs     []scenario.Spec
	remoteID  string
	state     string // "dispatching", "running", "done", "lost", "cancelled"
	repair    bool   // dispatched as a sweep.Request with Repair set
	completed int
	failed    int
	pollFails int

	// Hedging bookkeeping: when this shard falls far enough behind est
	// (its perfmodel-estimated duration on its worker), a speculative
	// twin is dispatched to an idle worker; partner links the two, and
	// the first to finish cancels the other.
	dispatched time.Time
	est        time.Duration
	hedge      bool
	partner    *shard
}

func terminalShard(state string) bool {
	return state == "done" || state == "lost" || state == "cancelled"
}

// fleetSweep is the coordinator's record of one sharded sweep.
type fleetSweep struct {
	id      string
	name    string
	specs   []scenario.Spec
	shards  []*shard
	pending []scenario.Spec // specs awaiting (re)assignment
	state   string          // "running", "done", "failed"
	errMsg  string
	started time.Time
	ended   time.Time
	done    chan struct{}

	shardSeq int
	// recoveredDone counts specs Recover resolved as store hits — work
	// finished before the crash that needs no re-dispatch.
	recoveredDone int
	recovered     bool
	// retire queues shard journal IDs whose Done must be written; the
	// append (an fsync) happens outside c.mu via drainRetire.
	retire []string
	// repairs counts, by spec hash, the specs a shard reported done whose
	// results the store could not give back, each time sent back to
	// pending; a shard that holds any of them is dispatched as a repair.
	repairs map[string]int
}

// sweepRecord is the journal payload of one sweep submission ("fs:" ids).
type sweepRecord struct {
	Name  string          `json:"name,omitempty"`
	Specs []scenario.Spec `json:"specs"`
}

// shardRecord is the journal payload of one shard assignment ("sh:" ids)
// — observability for the reconcile pass, which retires them wholesale
// (a restart invalidates every in-flight shard).
type shardRecord struct {
	Sweep  string `json:"sweep"`
	Worker string `json:"worker"`
	Specs  int    `json:"specs"`
	Hedge  bool   `json:"hedge,omitempty"`
}

// Coordinator is the fleet's control plane: the worker registry plus
// the shard dispatch/poll/reassign loops, one goroutine per running
// sweep. All exported methods are safe for concurrent use.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	workers  map[string]*workerState
	sweeps   map[string]*fleetSweep
	order    []string
	seq      int
	breakers map[string]*resilience.Breaker

	sweepsStarted    int
	sweepsRecovered  int
	shardsDispatched int
	shardsReassigned int
	hedges           int

	ctx       context.Context
	cancel    context.CancelFunc
	closed    chan struct{}
	closeOnce sync.Once
}

// NewCoordinator creates an empty coordinator. If opts.Journal is set,
// call Recover before serving to resume journaled sweeps.
func NewCoordinator(opts Options) *Coordinator {
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		opts:     opts.withDefaults(),
		workers:  make(map[string]*workerState),
		sweeps:   make(map[string]*fleetSweep),
		breakers: make(map[string]*resilience.Breaker),
		ctx:      ctx,
		cancel:   cancel,
		closed:   make(chan struct{}),
	}
}

// Close stops every sweep's run loop and any in-flight dispatch retry.
// Sweeps that were running stay un-done (their journal entries survive,
// so a new coordinator over the same journal resumes them). Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.cancel()
	})
}

// breakerLocked returns (creating on first use) the dispatch breaker of
// one worker; c.mu held.
func (c *Coordinator) breakerLocked(name string) *resilience.Breaker {
	b := c.breakers[name]
	if b == nil {
		b = resilience.NewBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
		c.breakers[name] = b
	}
	return b
}

func (c *Coordinator) breaker(name string) *resilience.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerLocked(name)
}

// journalAccept writes one Accept record; nil-safe. Errors from shard
// records are logged, not fatal — the worst case is a restart
// re-resolving work the store already holds.
func (c *Coordinator) journalAccept(id string, v any) error {
	if c.opts.Journal == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.opts.Journal.Accept(id, payload)
}

// journalDone retires one journal record; nil-safe, best-effort.
func (c *Coordinator) journalDone(id string) {
	if c.opts.Journal == nil {
		return
	}
	if err := c.opts.Journal.Done(id); err != nil {
		c.opts.Logf("fleet: journal done %s: %v", id, err)
	}
}

// drainRetire flushes queued shard-journal retirements outside c.mu
// (Done fsyncs; holding the coordinator lock across a disk flush would
// stall heartbeats behind slow storage).
func (c *Coordinator) drainRetire(fs *fleetSweep) {
	c.mu.Lock()
	ids := fs.retire
	fs.retire = nil
	c.mu.Unlock()
	for _, id := range ids {
		c.journalDone(id)
	}
}

func sweepJournalID(fsID string) string { return "fs:" + fsID }

func shardJournalID(fsID string, seq int) string {
	return fmt.Sprintf("sh:%s:%04d", fsID, seq)
}

// Register adds or refreshes a worker. Re-registration (same name)
// updates the record and clears any lost mark — a restarted worker is a
// fresh worker.
func (c *Coordinator) Register(req RegisterRequest) error {
	if req.Name == "" || req.URL == "" {
		return fmt.Errorf("fleet: registration needs name and url")
	}
	prof, err := machine.ByName(req.Machine)
	if err != nil {
		return fmt.Errorf("fleet: worker %s: %w", req.Name, err)
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.Name]
	if !ok {
		w = &workerState{registered: now}
		c.workers[req.Name] = w
	}
	w.RegisterRequest = req
	w.profile = prof
	w.lastSeen = now
	w.lost = false
	c.opts.Logf("fleet: worker %s registered (%s, %d host workers) at %s",
		req.Name, prof.Name, req.HostWorkers, req.URL)
	return nil
}

// Beat records a worker heartbeat.
func (c *Coordinator) Beat(hb Heartbeat) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[hb.Name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWorker, hb.Name)
	}
	w.lastSeen = time.Now()
	w.lost = false
	w.queueDepth = hb.QueueDepth
	w.busyWorkers = hb.BusyWorkers
	if hb.Store.Quarantined > w.quarantined {
		c.opts.Logf("fleet: worker %s reports %d quarantined artifacts (was %d): down-weighting until clean",
			hb.Name, hb.Store.Quarantined, w.quarantined)
	}
	w.quarantined = hb.Store.Quarantined
	return nil
}

// Workers lists the registry sorted by name.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markLostLocked()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		wv := WorkerView{
			Name:        w.Name,
			URL:         w.URL,
			Machine:     w.Machine,
			HostWorkers: w.HostWorkers,
			Workers:     w.Workers,
			Version:     w.Version,
			Registered:  w.registered,
			LastSeen:    w.lastSeen,
			Lost:        w.lost,
			QueueDepth:  w.queueDepth,
			BusyWorkers: w.busyWorkers,
			Quarantined: w.quarantined,
		}
		if b, ok := c.breakers[w.Name]; ok {
			wv.Breaker = b.State().String()
		}
		out = append(out, wv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// markLostLocked flips workers past the heartbeat window to lost; c.mu
// held.
func (c *Coordinator) markLostLocked() {
	cutoff := time.Now().Add(-c.opts.HeartbeatTimeout)
	for _, w := range c.workers {
		if !w.lost && w.lastSeen.Before(cutoff) {
			w.lost = true
			c.opts.Logf("fleet: worker %s lost (no heartbeat since %s)",
				w.Name, w.lastSeen.Format(time.RFC3339))
		}
	}
}

// liveLocked returns the live workers as packing capacities plus their
// URLs, sorted by name for deterministic placement; c.mu held. Workers
// whose dispatch breaker is open are excluded — re-admitted when the
// cooldown half-opens it.
func (c *Coordinator) liveLocked() ([]Capacity, map[string]string) {
	c.markLostLocked()
	var caps []Capacity
	urls := make(map[string]string)
	for _, w := range c.workers {
		if w.lost {
			continue
		}
		if b, ok := c.breakers[w.Name]; ok && !b.Ready() {
			continue
		}
		slots := w.HostWorkers
		if slots < 1 {
			slots = w.Workers
		}
		caps = append(caps, Capacity{Name: w.Name, Profile: w.profile, Slots: slots, Sick: w.quarantined > 0})
		urls[w.Name] = w.URL
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Name < caps[j].Name })
	return caps, urls
}

// Gauges snapshots the coordinator metrics.
func (c *Coordinator) Gauges() Gauges {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markLostLocked()
	g := Gauges{
		WorkersRegistered: len(c.workers),
		SweepsStarted:     c.sweepsStarted,
		SweepsRecovered:   c.sweepsRecovered,
		ShardsDispatched:  c.shardsDispatched,
		ShardsReassigned:  c.shardsReassigned,
		Hedges:            c.hedges,
	}
	for _, w := range c.workers {
		if w.lost {
			g.WorkersLost++
		} else {
			g.WorkersLive++
		}
	}
	for _, b := range c.breakers {
		if b.State() != resilience.BreakerClosed {
			g.BreakersOpen++
		}
	}
	for _, fs := range c.sweeps {
		if fs.state == "running" {
			g.SweepsRunning++
		}
	}
	return g
}

// StartSweep expands a sweep request, journals it, packs it across the
// live workers and begins dispatching in the background. The returned
// status is the initial snapshot; poll with Status or block with Await.
func (c *Coordinator) StartSweep(req sweep.Request) (SweepStatus, error) {
	specs, err := req.Expand()
	if err != nil {
		return SweepStatus{}, err
	}
	if len(specs) == 0 {
		return SweepStatus{}, fmt.Errorf("fleet: request expands to no jobs")
	}

	c.mu.Lock()
	caps, _ := c.liveLocked()
	if len(caps) == 0 {
		c.mu.Unlock()
		return SweepStatus{}, ErrNoWorkers
	}
	c.seq++
	id := fmt.Sprintf("f%04d", c.seq)
	c.mu.Unlock()

	// Write-ahead before the sweep exists anywhere else: once StartSweep
	// returns success, a crash cannot lose the submission.
	if err := c.journalAccept(sweepJournalID(id), sweepRecord{Name: req.Name, Specs: specs}); err != nil {
		return SweepStatus{}, fmt.Errorf("fleet: journaling sweep: %w", err)
	}

	fs := &fleetSweep{
		id:      id,
		name:    req.Name,
		specs:   specs,
		pending: specs,
		state:   "running",
		started: time.Now(),
		done:    make(chan struct{}),
	}
	c.mu.Lock()
	c.sweepsStarted++
	c.sweeps[fs.id] = fs
	c.order = append(c.order, fs.id)
	c.mu.Unlock()

	// Assign synchronously so the caller's first snapshot already shows
	// the placement (and tests can pick a victim deterministically).
	if err := c.assignPending(fs); err != nil {
		// Packing failure (not worker loss) is a request problem: fail
		// the sweep rather than spin.
		c.mu.Lock()
		fs.state, fs.errMsg = "failed", err.Error()
		fs.ended = time.Now()
		c.mu.Unlock()
		close(fs.done)
		c.journalDone(sweepJournalID(fs.id))
		return c.Status(fs.id)
	}
	go c.run(fs)
	return c.Status(fs.id)
}

// Recover rebuilds sweeps from the journal's pending set — the reconcile
// pass of a coordinator restart. For every journaled sweep, each spec is
// resolved against the store: a row whose physics still verifies (or a
// whole result, in a store from before rows) counts as completed — the
// work a dead coordinator's workers finished was never lost — the rest,
// rows that lost their physics among them, re-enter pending and re-pack
// across workers as they re-register. Stale shard records are retired
// wholesale — a restart invalidates every in-flight dispatch; their specs
// re-resolve through the store or recompute bit-identically. Only the
// coordinator's own records ("fs:" sweeps, "sh:" shards) are read or
// retired: a journal shared with the scheduler keeps its jobs for
// sched.Scheduler.Recover. Returns the number of sweeps resumed
// (still-running) plus those that closed immediately as full store hits.
// Call once, before serving traffic.
func (c *Coordinator) Recover() (int, error) {
	if c.opts.Journal == nil {
		return 0, nil
	}
	pending := c.opts.Journal.Pending()
	var ids []string
	for id := range pending {
		if strings.HasPrefix(id, "fs:") || strings.HasPrefix(id, "sh:") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	stored := c.readback()
	recovered := 0
	for _, id := range ids {
		if strings.HasPrefix(id, "sh:") {
			// A shard assignment of the dead incarnation: meaningless
			// now, retire.
			c.journalDone(id)
			continue
		}
		var rec sweepRecord
		if err := json.Unmarshal(pending[id], &rec); err != nil {
			c.opts.Logf("fleet: journal %s: undecodable payload, dropping: %v", id, err)
			c.journalDone(id)
			continue
		}
		fsID := strings.TrimPrefix(id, "fs:")
		var n int
		if _, err := fmt.Sscanf(fsID, "f%04d", &n); err != nil {
			c.opts.Logf("fleet: journal %s: unrecognised sweep id, dropping", id)
			c.journalDone(id)
			continue
		}

		// Reconcile against the store: completed shards' specs are hits.
		var unresolved []scenario.Spec
		hits := 0
		for _, sp := range rec.Specs {
			if c.opts.Store != nil && stored(sp.Hash()) {
				hits++
				continue
			}
			unresolved = append(unresolved, sp)
		}

		fs := &fleetSweep{
			id:            fsID,
			name:          rec.Name,
			specs:         rec.Specs,
			pending:       unresolved,
			state:         "running",
			started:       time.Now(),
			done:          make(chan struct{}),
			recovered:     true,
			recoveredDone: hits,
		}
		c.mu.Lock()
		if n > c.seq {
			c.seq = n // never re-issue a journaled sweep ID
		}
		c.sweepsRecovered++
		c.sweeps[fs.id] = fs
		c.order = append(c.order, fs.id)
		c.mu.Unlock()
		recovered++

		if len(unresolved) == 0 {
			c.mu.Lock()
			fs.state = "done"
			fs.ended = time.Now()
			c.mu.Unlock()
			close(fs.done)
			c.journalDone(id)
			c.opts.Logf("fleet: sweep %s recovered complete (%d/%d specs already in store)",
				fs.id, hits, len(rec.Specs))
			continue
		}
		c.opts.Logf("fleet: sweep %s recovered: %d/%d specs resolved from store, %d to re-dispatch",
			fs.id, hits, len(rec.Specs), len(unresolved))
		// The run loop re-packs once workers re-register; no worker yet is
		// not an error (boot order is free).
		go c.run(fs)
	}
	return recovered, nil
}

// readback returns a check of whether a spec's result can be read back
// from the store: its row is there and the physics it names verifies —
// read once per physics, however many specs the check is asked about
// price it — or, in a store from before rows, its whole result does. A
// row without its physics is work still to do, not a result. It needs
// opts.Store.
func (c *Coordinator) readback() func(hash string) bool {
	type physics struct {
		hours []*store.PhysicsRecord
		final []float64
	}
	verified := map[string]physics{} // by end-of-run prefix hash
	return func(hash string) bool {
		_, ok := c.opts.Store.Restore(hash, func(row *store.SpecManifest) ([]*store.PhysicsRecord, []float64) {
			end := row.PrefixHashes[len(row.PrefixHashes)-1]
			p, seen := verified[end]
			if !seen {
				p.hours, p.final = c.opts.Store.Physics(row)
				verified[end] = p
			}
			return p.hours, p.final
		})
		return ok
	}
}

// maxRepairs bounds how often one spec is sent back because a shard
// reported it done while the store could not give its result back. A
// worker's store writes fail while the coordinator is unreachable, and
// the worker then answers the spec from memory without rewriting what
// was lost; a repair re-runs it cold. A spec still unreadable after
// maxRepairs repairs fails the sweep rather than loop.
const maxRepairs = 3

// assignPending packs fs's pending specs over the live workers and
// dispatches the new shards. A dispatch failure marks that worker lost
// and sends its specs back to pending — the run loop retries.
func (c *Coordinator) assignPending(fs *fleetSweep) error {
	c.mu.Lock()
	pending := fs.pending
	if len(pending) == 0 {
		c.mu.Unlock()
		return nil
	}
	caps, urls := c.liveLocked()
	if len(caps) == 0 {
		c.mu.Unlock()
		return nil // stay pending until a worker (re)appears
	}
	fs.pending = nil
	c.mu.Unlock()

	shardSpecs, err := Pack(pending, caps)
	if err != nil {
		c.mu.Lock()
		fs.pending = pending
		c.mu.Unlock()
		return err
	}

	var newShards []*shard
	c.mu.Lock()
	for i, specs := range shardSpecs {
		if len(specs) == 0 {
			continue
		}
		fs.shardSeq++
		sh := &shard{
			seq:        fs.shardSeq,
			worker:     caps[i].Name,
			url:        urls[caps[i].Name],
			specs:      specs,
			repair:     fs.holdsRepair(specs),
			state:      "dispatching",
			dispatched: time.Now(),
			est:        estimateShardDuration(specs, caps[i]),
		}
		fs.shards = append(fs.shards, sh)
		newShards = append(newShards, sh)
		c.shardsDispatched++
	}
	c.mu.Unlock()

	for _, sh := range newShards {
		if err := c.journalAccept(shardJournalID(fs.id, sh.seq),
			shardRecord{Sweep: fs.id, Worker: sh.worker, Specs: len(sh.specs)}); err != nil {
			c.opts.Logf("fleet: journaling shard %s/%d: %v", fs.id, sh.seq, err)
		}
		c.dispatch(fs, sh)
	}
	c.drainRetire(fs)
	return nil
}

// holdsRepair reports whether any of specs was sent back for a repair.
func (fs *fleetSweep) holdsRepair(specs []scenario.Spec) bool {
	for _, sp := range specs {
		if fs.repairs[sp.Hash()] > 0 {
			return true
		}
	}
	return false
}

// estimateShardDuration prices a shard on its worker: the perfmodel
// cost sum over the worker's effective speed. Zero when any estimate
// fails — the hedge deadline then rests on HedgeMinDelay alone.
func estimateShardDuration(specs []scenario.Spec, cap Capacity) time.Duration {
	var total float64
	for _, sp := range specs {
		cost, err := perfmodel.CostEstimate(sp)
		if err != nil {
			return 0
		}
		total += cost
	}
	return time.Duration(total / cap.Speed() * float64(time.Second))
}

// dispatch posts one shard to its worker's /v1/sweeps as a specs-only
// sweep request, retrying transient failures (injected faults at
// fleet.dispatch, transport errors, 5xx) under the coordinator's retry
// policy with a deterministic per-worker jitter key. Each dispatch
// scores the worker's circuit breaker exactly once; an open breaker
// requeues the shard without marking the worker lost (heartbeats may
// still be arriving — only the dispatch path is sick).
func (c *Coordinator) dispatch(fs *fleetSweep, sh *shard) {
	br := c.breaker(sh.worker)
	if !br.Allow() {
		c.mu.Lock()
		c.requeueShardLocked(fs, sh, "dispatch breaker open")
		c.mu.Unlock()
		return
	}
	req := sweep.Request{
		Name:   fmt.Sprintf("%s/%s", fs.id, sh.worker),
		Specs:  sh.specs,
		Repair: sh.repair,
	}
	var st sweep.Status
	_, err := resilience.Retry(c.ctx, c.opts.Retry, resilience.HashKey(sh.worker), func(int) error {
		_, err := resilience.Exchange{Point: resilience.PointFleetDispatch, Method: http.MethodPost,
			URL: sh.url + "/v1/sweeps", JSON: req, Into: &st}.Do(c.ctx, c.opts.Client)
		return err
	}, nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		br.Failure()
		c.opts.Logf("fleet: dispatch to %s failed: %v", sh.worker, err)
		c.loseShardLocked(fs, sh)
		return
	}
	br.Success()
	if sh.state == "cancelled" {
		// The hedge race resolved against this copy while the POST was in
		// flight; undo it on the worker.
		go c.cancelRemote(sh.url, st.ID)
		return
	}
	sh.remoteID = st.ID
	sh.state = "running"
	sh.dispatched = time.Now()
	c.opts.Logf("fleet: sweep %s: %d specs -> %s (remote %s)",
		fs.id, len(sh.specs), sh.worker, st.ID)
}

// requeueShardLocked sends a shard's specs back to pending without
// blaming the worker; c.mu held.
func (c *Coordinator) requeueShardLocked(fs *fleetSweep, sh *shard, why string) {
	if terminalShard(sh.state) {
		return
	}
	sh.state = "lost"
	fs.retire = append(fs.retire, shardJournalID(fs.id, sh.seq))
	if c.partnerCoversLocked(sh) {
		c.opts.Logf("fleet: sweep %s: shard on %s dropped (%s), hedge twin covers it",
			fs.id, sh.worker, why)
		return
	}
	fs.pending = append(fs.pending, sh.specs...)
	c.shardsReassigned++
	c.opts.Logf("fleet: sweep %s: shard on %s requeued (%s)", fs.id, sh.worker, why)
}

// loseShardLocked marks a shard's worker lost and queues the shard's
// specs for reassignment; c.mu held. Specs the worker already finished
// re-resolve as store hits, so requeueing the whole shard is safe. A
// shard whose hedge twin is still in flight (or done) is not requeued —
// the twin carries the same specs.
func (c *Coordinator) loseShardLocked(fs *fleetSweep, sh *shard) {
	if terminalShard(sh.state) {
		return
	}
	sh.state = "lost"
	fs.retire = append(fs.retire, shardJournalID(fs.id, sh.seq))
	if w, ok := c.workers[sh.worker]; ok && !w.lost {
		w.lost = true
	}
	if c.partnerCoversLocked(sh) {
		c.opts.Logf("fleet: sweep %s: shard on %s lost, hedge twin covers it",
			fs.id, sh.worker)
		return
	}
	fs.pending = append(fs.pending, sh.specs...)
	c.shardsReassigned++
	c.opts.Logf("fleet: sweep %s: shard on %s lost, %d specs requeued",
		fs.id, sh.worker, len(sh.specs))
}

// partnerCoversLocked reports whether a shard's hedge twin still covers
// the same specs (in flight or finished); c.mu held.
func (c *Coordinator) partnerCoversLocked(sh *shard) bool {
	p := sh.partner
	return p != nil && (p.state == "dispatching" || p.state == "running" || p.state == "done")
}

// run drives one sweep: poll shard progress, detect losses, hedge
// stragglers, reassign, finish when every spec is covered by a
// completed shard (or was resolved from the store at recovery).
func (c *Coordinator) run(fs *fleetSweep) {
	for {
		select {
		case <-c.closed:
			// Coordinator shutdown: leave the sweep un-done. Its journal
			// entry survives, so the next incarnation's Recover resumes it.
			return
		case <-time.After(c.opts.PollInterval):
		}

		c.mu.Lock()
		c.markLostLocked()
		var toPoll []*shard
		for _, sh := range fs.shards {
			switch sh.state {
			case "running":
				if w, ok := c.workers[sh.worker]; ok && w.lost {
					c.loseShardLocked(fs, sh)
					continue
				}
				toPoll = append(toPoll, sh)
			case "dispatching":
				// dispatch() is still in flight on another goroutine only
				// during assignPending; by the time run() sees it, a stuck
				// "dispatching" means the dispatch call failed after this
				// snapshot — next pass resolves it.
			}
		}
		c.mu.Unlock()
		c.drainRetire(fs)

		for _, sh := range toPoll {
			if err := c.poll(fs, sh); err != nil {
				c.fail(fs, err)
				return
			}
		}
		c.drainRetire(fs)

		c.hedgePass(fs)

		if err := c.assignPending(fs); err != nil {
			c.fail(fs, err)
			return
		}

		c.mu.Lock()
		finished := len(fs.pending) == 0 && (len(fs.shards) > 0 || fs.recoveredDone == len(fs.specs))
		for _, sh := range fs.shards {
			if !terminalShard(sh.state) {
				finished = false
				break
			}
		}
		if finished {
			fs.state = "done"
			fs.ended = time.Now()
			c.mu.Unlock()
			c.opts.Logf("fleet: sweep %s done (%d shards, %d reassigned, %d hedged)",
				fs.id, len(fs.shards), c.shardsReassigned, c.hedges)
			close(fs.done)
			c.journalDone(sweepJournalID(fs.id))
			return
		}
		c.mu.Unlock()
	}
}

// fail ends a sweep's run as failed with err.
func (c *Coordinator) fail(fs *fleetSweep, err error) {
	c.mu.Lock()
	fs.state, fs.errMsg = "failed", err.Error()
	fs.ended = time.Now()
	c.mu.Unlock()
	close(fs.done)
	c.journalDone(sweepJournalID(fs.id))
}

// hedgePass speculatively re-dispatches stragglers: a running shard
// whose age exceeds max(HedgeMinDelay, HedgeFactor × est) gets a twin
// on the fastest idle live worker. Duplicates are safe — results are
// content-addressed and store writes idempotent — so the race has no
// wrong outcome; first completion wins and the loser is cancelled.
func (c *Coordinator) hedgePass(fs *fleetSweep) {
	if c.opts.HedgeFactor < 0 {
		return
	}
	var twins []*shard
	c.mu.Lock()
	caps, urls := c.liveLocked()
	busy := c.busyWorkersLocked()
	for _, sh := range fs.shards {
		if sh.state != "running" || sh.hedge || sh.partner != nil {
			continue
		}
		deadline := time.Duration(c.opts.HedgeFactor * float64(sh.est))
		if deadline < c.opts.HedgeMinDelay {
			deadline = c.opts.HedgeMinDelay
		}
		if time.Since(sh.dispatched) <= deadline {
			continue
		}
		// Fastest idle worker that isn't the straggler itself; ties break
		// on name so the choice is deterministic.
		best := -1
		for i, cap := range caps {
			if cap.Name == sh.worker || busy[cap.Name] {
				continue
			}
			if best < 0 || cap.Speed() > caps[best].Speed() ||
				(cap.Speed() == caps[best].Speed() && cap.Name < caps[best].Name) {
				best = i
			}
		}
		if best < 0 {
			continue // nobody idle; keep waiting
		}
		fs.shardSeq++
		twin := &shard{
			seq:        fs.shardSeq,
			worker:     caps[best].Name,
			url:        urls[caps[best].Name],
			specs:      sh.specs,
			repair:     sh.repair,
			state:      "dispatching",
			dispatched: time.Now(),
			est:        estimateShardDuration(sh.specs, caps[best]),
			hedge:      true,
			partner:    sh,
		}
		sh.partner = twin
		fs.shards = append(fs.shards, twin)
		busy[twin.worker] = true
		c.shardsDispatched++
		c.hedges++
		c.opts.Logf("fleet: sweep %s: shard on %s is a straggler (%.1fs past deadline), hedging to %s",
			fs.id, sh.worker, time.Since(sh.dispatched).Seconds()-deadline.Seconds(), twin.worker)
		twins = append(twins, twin)
	}
	c.mu.Unlock()

	for _, twin := range twins {
		if err := c.journalAccept(shardJournalID(fs.id, twin.seq),
			shardRecord{Sweep: fs.id, Worker: twin.worker, Specs: len(twin.specs), Hedge: true}); err != nil {
			c.opts.Logf("fleet: journaling hedge shard %s/%d: %v", fs.id, twin.seq, err)
		}
		c.dispatch(fs, twin)
	}
	c.drainRetire(fs)
}

// busyWorkersLocked is the set of workers with a shard in flight in any
// sweep; c.mu held.
func (c *Coordinator) busyWorkersLocked() map[string]bool {
	busy := make(map[string]bool)
	for _, fs := range c.sweeps {
		for _, sh := range fs.shards {
			if sh.state == "dispatching" || sh.state == "running" {
				busy[sh.worker] = true
			}
		}
	}
	return busy
}

// poll refreshes one running shard from its worker. The first of a
// hedged pair to reach done wins; the loser is cancelled locally and,
// best-effort, on its worker. A done shard's specs count as done only if
// their results read back from the store; the others go back to pending
// as repairs. The error is a spec that has exhausted its repairs.
func (c *Coordinator) poll(fs *fleetSweep, sh *shard) error {
	var st sweep.Status
	// Not under c.ctx: a poll cut short by Close must not count as a
	// poll failure and lose the shard on the way out.
	_, err := resilience.Exchange{Method: http.MethodGet, URL: sh.url + "/v1/sweeps/" + sh.remoteID,
		Into: &st}.Do(context.Background(), c.opts.Client)
	var unread []scenario.Spec
	if err == nil && st.State == "done" && c.opts.Store != nil {
		// Off the lock: each check reads the store. Only the specs the
		// worker finished are owed a result.
		stored := c.readback()
		for _, jv := range st.Jobs {
			if jv.State == "done" && !stored(jv.Spec.Hash()) {
				unread = append(unread, jv.Spec)
			}
		}
	}
	type cancelTarget struct{ url, remoteID string }
	var loserCancel *cancelTarget
	c.mu.Lock()
	if sh.state != "running" {
		// Resolved (cancelled by the hedge race, lost, …) while the poll
		// was in flight; nothing to record.
		c.mu.Unlock()
		return nil
	}
	if err != nil {
		sh.pollFails++
		if sh.pollFails >= c.opts.PollFailures {
			c.opts.Logf("fleet: sweep %s: %d consecutive poll failures on %s: %v",
				fs.id, sh.pollFails, sh.worker, err)
			c.loseShardLocked(fs, sh)
		}
		c.mu.Unlock()
		c.drainRetire(fs)
		return nil
	}
	sh.pollFails = 0
	sh.completed = st.Completed
	sh.failed = st.Failed
	var repairErr error
	if st.State == "done" {
		sh.state = "done"
		fs.retire = append(fs.retire, shardJournalID(fs.id, sh.seq))
		repairErr = c.repairLocked(fs, sh, unread)
		if p := sh.partner; p != nil && !terminalShard(p.state) {
			p.state = "cancelled"
			fs.retire = append(fs.retire, shardJournalID(fs.id, p.seq))
			if p.remoteID != "" {
				loserCancel = &cancelTarget{url: p.url, remoteID: p.remoteID}
			}
			c.opts.Logf("fleet: sweep %s: shard on %s finished first, cancelling twin on %s",
				fs.id, sh.worker, p.worker)
		}
	}
	c.mu.Unlock()
	c.drainRetire(fs)
	if loserCancel != nil {
		go c.cancelRemote(loserCancel.url, loserCancel.remoteID)
	}
	return repairErr
}

// repairLocked sends the specs of a done shard whose results did not
// read back to pending as repairs, and takes them out of the shard's
// completed count; c.mu held. It fails on a spec already repaired
// maxRepairs times.
func (c *Coordinator) repairLocked(fs *fleetSweep, sh *shard, unread []scenario.Spec) error {
	if len(unread) == 0 {
		return nil
	}
	if fs.repairs == nil {
		fs.repairs = make(map[string]int)
	}
	for _, sp := range unread {
		h := sp.Hash()
		if fs.repairs[h] >= maxRepairs {
			return fmt.Errorf("fleet: spec %s: result does not read back from the store after %d repairs", h, maxRepairs)
		}
		fs.repairs[h]++
	}
	sh.completed = max(sh.completed-len(unread), 0)
	fs.pending = append(fs.pending, unread...)
	c.opts.Logf("fleet: sweep %s: shard on %s done, but %d of its %d specs do not read back from the store; repairing",
		fs.id, sh.worker, len(unread), len(sh.specs))
	return nil
}

// cancelRemote asks a worker to abandon a sweep (DELETE /v1/sweeps/{id});
// best-effort — an unreachable worker just finishes redundant work whose
// content-addressed results are identical anyway.
func (c *Coordinator) cancelRemote(url, remoteID string) {
	if remoteID == "" {
		return
	}
	_, err := resilience.Exchange{Method: http.MethodDelete,
		URL: url + "/v1/sweeps/" + remoteID}.Do(c.ctx, c.opts.Client)
	if err != nil {
		c.opts.Logf("fleet: cancelling remote sweep %s: %v", remoteID, err)
	}
}

// Status snapshots a fleet sweep by ID.
func (c *Coordinator) Status(id string) (SweepStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs, ok := c.sweeps[id]
	if !ok {
		return SweepStatus{}, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	return c.snapshotLocked(fs), nil
}

// List snapshots every fleet sweep in start order.
func (c *Coordinator) List() []SweepStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SweepStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.snapshotLocked(c.sweeps[id]))
	}
	return out
}

// Await blocks until the sweep finishes or ctx expires.
func (c *Coordinator) Await(ctx context.Context, id string) (SweepStatus, error) {
	c.mu.Lock()
	fs, ok := c.sweeps[id]
	c.mu.Unlock()
	if !ok {
		return SweepStatus{}, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	select {
	case <-fs.done:
		return c.Status(id)
	case <-ctx.Done():
		return SweepStatus{}, ctx.Err()
	}
}

func (c *Coordinator) snapshotLocked(fs *fleetSweep) SweepStatus {
	out := SweepStatus{
		ID:         fs.id,
		Name:       fs.name,
		State:      fs.state,
		Error:      fs.errMsg,
		Total:      len(fs.specs),
		Recovered:  fs.recoveredDone,
		Completed:  fs.recoveredDone,
		StartedAt:  fs.started,
		FinishedAt: fs.ended,
	}
	for _, sh := range fs.shards {
		out.Shards = append(out.Shards, ShardStatus{
			Worker:    sh.worker,
			RemoteID:  sh.remoteID,
			Specs:     len(sh.specs),
			State:     sh.state,
			Completed: sh.completed,
			Failed:    sh.failed,
			Hedge:     sh.hedge,
		})
		switch sh.state {
		case "lost":
			out.Reassigned++
			continue
		case "cancelled":
			// The twin's numbers already count; the loser's would double.
			continue
		}
		if sh.hedge && sh.partner != nil && sh.partner.state == "done" {
			continue // primary won; don't double-count the twin's progress
		}
		out.Completed += sh.completed
		out.Failed += sh.failed
	}
	return out
}
