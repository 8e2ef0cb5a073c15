// Package integrity is the store-scrubbing subsystem: a background
// auditor that re-verifies every artifact in the content-addressed
// store at a configurable pace, moves failures into quarantine (never
// silently deletes — the corrupt bytes stay on disk for forensics), and
// triggers recompute repair through the scheduler so quarantined
// records and checkpoints — the physics every row of a run is restored
// from — are regenerated bit-identically by the deterministic numerics.
//
// The scrubber is deliberately an auditor, not a client: it reads
// through the store backend directly, so its sweep does not pollute the
// serving path's hit/miss counters or trip the I/O breaker, and a pass
// over a cold store costs exactly the bytes it reads, paced by the
// byte-rate budget.
//
// Repair resolution uses the rows the scheduler writes after every
// successful execution (store.SpecManifest): a quarantined record or
// checkpoint resolves to a spec by scanning rows for the matching
// physics-prefix hash, a quarantined whole result (a store from before
// rows) by content hash directly. Rows themselves and S-R matrices are
// quarantine-only — both are rebuilt on demand by their producers.
package integrity

import (
	"context"
	"path"
	"strings"
	"sync"
	"time"

	"airshed/internal/resilience"
	"airshed/internal/store"
)

// Repairer regenerates the artifacts of one spec by recomputation.
// *sched.Scheduler implements it: Repair decodes the manifest's spec
// JSON, force-enqueues a cold recompute (bypassing every stored fast
// path) and blocks until it finishes.
type Repairer interface {
	Repair(ctx context.Context, specJSON []byte) error
}

// Options configures a Scrubber.
type Options struct {
	// Store is the artifact store to scrub. Required.
	Store *store.Store
	// Interval is the idle period between scrub passes (the
	// -scrub-interval flag). 0 takes the 5-minute default; a negative
	// interval disables the background loop (passes only run when
	// driven explicitly via Pass).
	Interval time.Duration
	// RateBytesPerSec paces the pass: after each artifact the scrubber
	// sleeps size/rate, so a pass over a large store trickles along
	// instead of monopolising disk bandwidth. 0 means unpaced.
	RateBytesPerSec int64
	// Repair, when non-nil, regenerates quarantined records, checkpoints
	// and whole results by recomputation. Nil means quarantine-only.
	Repair Repairer
	// RepairTimeout bounds each blocking repair call (default 10m).
	RepairTimeout time.Duration
	// Logf, when non-nil, receives one line per quarantine and repair
	// outcome (log.Printf-shaped).
	Logf func(format string, args ...any)
}

// Counters are the scrubber's cumulative metrics.
type Counters struct {
	// Passes is the number of completed scrub passes.
	Passes uint64
	// Artifacts is the number of artifacts verified across all passes
	// (airshedd_scrub_artifacts_total).
	Artifacts uint64
	// Quarantined is the number of artifacts this scrubber's own
	// verification failed and moved to quarantine. (The store's
	// Counters.Quarantined also counts read-path quarantines.)
	Quarantined uint64
	// Repairs and RepairFailures count recompute-repair outcomes.
	Repairs        uint64
	RepairFailures uint64
	// Skipped counts artifacts a pass could not read (eviction races,
	// transient I/O failures, injected store.scrub faults) — skipped,
	// never quarantined, and retried on the next pass.
	Skipped uint64
	// LastPass is the completion time of the most recent pass (zero
	// before the first completes); LastPassAgeSeconds its age at
	// snapshot time (-1 before the first pass) — the /healthz scrub
	// freshness signal.
	LastPass           time.Time
	LastPassAgeSeconds float64
}

// Scrubber is the background store auditor. Create with New, start the
// background loop with Start, stop with Close; Pass runs one synchronous
// pass regardless of the loop.
type Scrubber struct {
	opts Options

	mu       sync.Mutex
	counters Counters
	lastPass time.Time

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New creates a Scrubber over the store.
func New(opts Options) *Scrubber {
	if opts.Interval == 0 {
		opts.Interval = 5 * time.Minute
	}
	if opts.RepairTimeout <= 0 {
		opts.RepairTimeout = 10 * time.Minute
	}
	return &Scrubber{opts: opts, stop: make(chan struct{})}
}

// Start launches the background pass loop: one pass immediately, then
// one per interval until Close. No-op when the interval is negative.
func (sc *Scrubber) Start() {
	if sc.opts.Interval < 0 {
		return
	}
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-sc.stop
			cancel()
		}()
		for {
			sc.Pass(ctx)
			select {
			case <-sc.stop:
				return
			case <-time.After(sc.opts.Interval):
			}
		}
	}()
}

// Close stops the background loop and waits for an in-flight pass to
// wind down (its context is cancelled, so rate-limit sleeps and repair
// waits return promptly).
func (sc *Scrubber) Close() {
	sc.once.Do(func() { close(sc.stop) })
	sc.wg.Wait()
}

// Counters snapshots the metrics.
func (sc *Scrubber) Counters() Counters {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	c := sc.counters
	c.LastPass = sc.lastPass
	c.LastPassAgeSeconds = -1
	if !sc.lastPass.IsZero() {
		c.LastPassAgeSeconds = time.Since(sc.lastPass).Seconds()
	}
	return c
}

// Pass runs one full scrub pass: every stored artifact is read through
// the backend, re-verified (framing, checksums, full decompression) and
// quarantined + repaired on failure. Returns the number of artifacts
// verified. Unreadable artifacts are skipped, not quarantined: a read
// failure distinguishes "cannot fetch the bytes right now" (transient —
// eviction race, I/O hiccup, injected store.scrub fault) from "the
// bytes are provably rotten", and only the latter may quarantine.
func (sc *Scrubber) Pass(ctx context.Context) int {
	st := sc.opts.Store
	infos, err := st.ListBlobs()
	if err != nil {
		sc.logf("integrity: scrub pass aborted: list: %v", err)
		return 0
	}
	verified := 0
	repaired := make(map[string]bool) // spec hashes repaired this pass
	for _, info := range infos {
		if ctx.Err() != nil {
			return verified
		}
		sc.throttle(ctx, info.Size)
		if err := resilience.Fire(resilience.PointStoreScrub); err != nil {
			// Injected read fault: this artifact is unreadable this
			// pass. Healthy bytes must never land in quarantine, so the
			// fault maps to skip, exactly like a real I/O failure.
			sc.bump(func(c *Counters) { c.Skipped++ })
			continue
		}
		data, err := st.Backend().Get(info.Key)
		if err != nil {
			sc.bump(func(c *Counters) { c.Skipped++ })
			continue
		}
		verified++
		sc.bump(func(c *Counters) { c.Artifacts++ })
		if err := store.VerifyBlob(info.Key, data); err == nil {
			continue
		}
		if qerr := st.QuarantineBlob(info.Key); qerr != nil {
			sc.logf("integrity: quarantine %s failed: %v", info.Key, qerr)
			continue
		}
		sc.bump(func(c *Counters) { c.Quarantined++ })
		sc.logf("integrity: quarantined %s (checksum/decode verification failed)", info.Key)
		sc.repair(ctx, info.Key, repaired)
	}
	sc.mu.Lock()
	sc.counters.Passes++
	sc.lastPass = time.Now()
	sc.mu.Unlock()
	return verified
}

// throttle charges one artifact's bytes against the pass's rate budget.
func (sc *Scrubber) throttle(ctx context.Context, size int64) {
	if sc.opts.RateBytesPerSec <= 0 || size <= 0 {
		return
	}
	d := time.Duration(float64(size) / float64(sc.opts.RateBytesPerSec) * float64(time.Second))
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// repair resolves a quarantined artifact back to a spec that produced it
// and triggers a blocking recompute, which rewrites every record and
// checkpoint of the run and that spec's row; the other rows of the same
// physics restore again as they are. One repair per spec per pass: a run
// whose every artifact rotted is rebuilt by a single cold recompute.
func (sc *Scrubber) repair(ctx context.Context, key string, repaired map[string]bool) {
	if sc.opts.Repair == nil {
		return
	}
	kind, name, err := store.SplitKey(key)
	if err != nil {
		return
	}
	hash := strings.TrimSuffix(name, path.Ext(name))
	var m *store.SpecManifest
	switch kind {
	case store.KindResult:
		m, _ = sc.opts.Store.GetManifest(hash)
	case store.KindRecord, store.KindCheckpoint:
		m = sc.manifestForPrefix(hash)
	default:
		// A row is a memo, not data: with it quarantined its spec is a
		// miss, and the next submission reprices the physics still on
		// record (a millisecond's core.Replay) and writes the same bytes
		// again. The S-R service rebuilds matrices on demand.
		// Quarantine-only, both.
		return
	}
	if m == nil {
		sc.logf("integrity: no manifest resolves %s; quarantined without repair", key)
		return
	}
	specHash := sc.specHashFor(kind, hash, m)
	if repaired[specHash] {
		return
	}
	repaired[specHash] = true
	rctx, cancel := context.WithTimeout(ctx, sc.opts.RepairTimeout)
	defer cancel()
	if err := sc.opts.Repair.Repair(rctx, m.Spec); err != nil {
		sc.bump(func(c *Counters) { c.RepairFailures++ })
		sc.logf("integrity: repair for %s failed: %v", key, err)
		return
	}
	sc.bump(func(c *Counters) { c.Repairs++ })
	sc.logf("integrity: repaired %s by recompute", key)
}

// manifestForPrefix finds a manifest whose physics-prefix hashes
// contain ph — the inverse mapping for quarantined records and
// checkpoints, which are keyed by prefix hash rather than spec hash.
func (sc *Scrubber) manifestForPrefix(ph string) *store.SpecManifest {
	infos, err := sc.opts.Store.ListBlobs()
	if err != nil {
		return nil
	}
	for _, info := range infos {
		kind, name, err := store.SplitKey(info.Key)
		if err != nil || kind != store.KindSpec {
			continue
		}
		m, ok := sc.opts.Store.GetManifest(strings.TrimSuffix(name, path.Ext(name)))
		if !ok {
			continue
		}
		for _, h := range m.PrefixHashes {
			if h == ph {
				return m
			}
		}
	}
	return nil
}

// specHashFor keys the per-pass repair dedup set: the spec hash for
// results (it IS the artifact name), the manifest's identity otherwise.
func (sc *Scrubber) specHashFor(kind, hash string, m *store.SpecManifest) string {
	if kind == store.KindResult {
		return hash
	}
	return string(m.Spec)
}

func (sc *Scrubber) bump(f func(*Counters)) {
	sc.mu.Lock()
	f(&sc.counters)
	sc.mu.Unlock()
}

func (sc *Scrubber) logf(format string, args ...any) {
	if sc.opts.Logf != nil {
		sc.opts.Logf(format, args...)
	}
}
