// Command airshedd is the Airshed scenario service: an HTTP daemon that
// runs simulation scenarios on a bounded worker pool, coalesces
// duplicate in-flight requests, serves repeated scenarios from an LRU
// result cache, and answers Section 4 analytic performance predictions
// without running the numerics at the requested scale.
//
// With -store the daemon is additionally backed by a persistent
// artifact store (internal/store): completed results survive restarts,
// and new runs warm-start from checkpoints of any stored scenario that
// shares a physics prefix — the batch sweep endpoint exploits this to
// run whole policy studies at a fraction of N cold runs.
//
// API:
//
//	POST /v1/runs          submit a scenario (JSON spec), returns job id;
//	                       a full queue answers 429 with a perfmodel-derived Retry-After
//	GET  /v1/runs/{id}     job status + result summary once done
//	GET  /v1/runs/{id}/stream   SSE: one "hour" event per simulated hour as the
//	                       run executes, closed by a terminal "status" event
//	POST /v1/sweeps        submit a batch study (JSON sweep.Request)
//	GET  /v1/sweeps        list sweeps
//	GET  /v1/sweeps/{id}   sweep progress + aggregate policy table
//	DELETE /v1/sweeps/{id} cancel a sweep's unstarted jobs
//	GET  /v1/sweeps/{id}/stream SSE: "progress" events as jobs finish, closed
//	                       by a final "sweep" event with the aggregate table
//	GET  /v1/predict       analytic *performance* prediction (runtime/memory
//	                       from the Section 4 model; ?dataset=&machine=&nodes=&hours=)
//	POST /v1/sr/build      build (or attach to) a source–receptor matrix (JSON sr.Set)
//	POST /v1/sr/predict    *concentration* prediction for an emission scenario via
//	                       SR matvec — microseconds, zero simulation
//	GET  /v1/sr/matrices   list resident SR matrices
//	GET  /healthz          liveness
//	GET  /metrics          plain-text scheduler + store counters
//
// On SIGTERM/SIGINT the daemon stops accepting work, drains the queue
// (bounded by -drain-timeout, after which running jobs are cancelled)
// and exits.
//
// Usage:
//
//	airshedd -addr :8080 -workers 4 -cache-entries 128 -store /var/lib/airshed
//	curl -s localhost:8080/v1/runs -d '{"dataset":"mini","machine":"t3e","nodes":4,"hours":2}'
//	curl -s localhost:8080/v1/sweeps -d '{"base":{"dataset":"mini","machine":"t3e","nodes":4,"hours":3},
//	  "grid":{"nox_scales":[0.8,0.6],"control_start_hours":[2]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"airshed/internal/fleet"
	"airshed/internal/integrity"
	"airshed/internal/resilience"
	"airshed/internal/sched"
	"airshed/internal/store"
)

// version is the build version, injected at link time:
//
//	go build -ldflags "-X main.version=$(git describe --always --dirty)"
//
// It is printed by -version and reported in /healthz and worker
// registrations, so operators can detect mixed-version fleets.
var version = "dev"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "airshedd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
		queueDepth   = flag.Int("queue", 64, "submission queue depth (full queue rejects with 503)")
		cacheEntries = flag.Int("cache-entries", 128, "result cache capacity in entries (negative disables)")
		cacheMB      = flag.Int64("cache-mb", 512, "result cache capacity in MiB (approximate)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job execution timeout (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "max time to drain the queue on shutdown")
		storeDir     = flag.String("store", "", "artifact store directory (empty disables persistence)")
		storeMB      = flag.Int64("store-mb", 2048, "artifact store size cap in MiB (<= 0 unlimited)")
		hostWorkers  = flag.Int("host-workers", 0, "host engine workers per job (0 = shared GOMAXPROCS pool, 1 = serial reference)")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
		journalPath  = flag.String("journal", "", "crash-recovery journal file of jobs and fleet sweeps (default <store>/journal.wal when -store is set; \"off\" disables)")
		retries      = flag.Int("retries", 3, "attempts per job for transiently-failed runs (1 = no retries)")

		// Integrity subsystem: background store scrubbing with quarantine
		// + recompute repair, paranoid read verification, and the
		// stuck-hour watchdog on running jobs.
		verifyReads    = flag.Bool("verify-reads", false, "re-verify checksums on every store read; rotten blobs quarantine instead of being served")
		scrubInterval  = flag.Duration("scrub-interval", 5*time.Minute, "idle period between background store scrub passes (0 disables scrubbing; requires -store)")
		scrubRateMB    = flag.Float64("scrub-rate-mb", 32, "scrub read pacing in MiB/s (0 = unpaced)")
		watchdogFactor = flag.Float64("watchdog-factor", 0, "cancel a job when no hour completes within this multiple of its per-hour estimate, with a stack-dump diagnostic (0 disables)")

		showVersion = flag.Bool("version", false, "print version and exit")

		// Deterministic chaos: the same seed and rate reproduce the exact
		// same fault schedule, so a chaotic run that diverges is a real bug.
		faultSeed   = flag.Uint64("fault-seed", 0, "deterministic fault-injection seed (with -fault-rate)")
		faultRate   = flag.Float64("fault-rate", 0, "inject transient faults at -fault-points with this probability (0 disables)")
		faultPoints = flag.String("fault-points", "", "comma-separated injection points (default: all known points; see internal/resilience)")

		fleetCoordinator = flag.Bool("fleet-coordinator", false, "serve the fleet coordinator API (/v1/fleet/*); requires -store")
		fleetWorker      = flag.String("fleet-worker", "", "coordinator base URL; run as a fleet worker using the coordinator's store")
		fleetName        = flag.String("fleet-name", "", "fleet worker name (default <host>:<port> of -addr)")
		fleetSelfURL     = flag.String("fleet-self-url", "", "this worker's base URL as reachable from the coordinator (default http://127.0.0.1:<port>)")
		fleetMachine     = flag.String("fleet-machine", "gohost", "machine profile this worker advertises for fleet bin-packing")
		fleetHeartbeat   = flag.Duration("fleet-heartbeat", 2*time.Second, "fleet heartbeat interval")
		fleetMaxBackoff  = flag.Duration("fleet-max-backoff", 30*time.Second, "worker: cap on the re-register retry backoff when the coordinator is unreachable")
		fleetHBTimeout   = flag.Duration("fleet-heartbeat-timeout", 10*time.Second, "coordinator: declare a worker lost after this silence")
		fleetPoll        = flag.Duration("fleet-poll", 500*time.Millisecond, "coordinator: shard progress poll interval")
		fleetHedge       = flag.Float64("fleet-hedge", 0, "coordinator: hedge a shard running this multiple of its estimated duration (0 = default 4, <0 disables)")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println("airshedd", version)
		return nil
	}
	if *fleetCoordinator && *fleetWorker != "" {
		return fmt.Errorf("-fleet-coordinator and -fleet-worker are mutually exclusive")
	}
	// Rejected here, not per job: core.Config.Validate would otherwise fail
	// every admitted (and journaled) run.
	if *hostWorkers < 0 {
		return fmt.Errorf("-host-workers must be >= 0, got %d", *hostWorkers)
	}

	// Fault injection arms before any subsystem starts, so boot-time
	// paths (journal replay, registration) are under chaos too.
	if *faultRate > 0 {
		points := resilience.Points()
		if *faultPoints != "" {
			points = strings.Split(*faultPoints, ",")
		}
		inj := resilience.New(*faultSeed)
		for _, pt := range points {
			inj.Set(strings.TrimSpace(pt), *faultRate)
		}
		resilience.Enable(inj)
		defer resilience.Disable()
		fmt.Printf("airshedd: fault injection: seed %d, rate %.3f at %s\n",
			*faultSeed, *faultRate, strings.Join(points, ","))
	}

	var artifacts *store.Store
	switch {
	case *fleetWorker != "":
		// Workers read and write artifacts through the coordinator's
		// store, so results computed here are servable fleet-wide.
		if *storeDir != "" {
			return fmt.Errorf("-store and -fleet-worker are mutually exclusive: workers use the coordinator's store")
		}
		var err error
		if artifacts, err = store.OpenBackend(store.NewHTTPBackend(*fleetWorker, nil), 0); err != nil {
			return err
		}
		fmt.Printf("airshedd: fleet worker, artifact store via %s\n", *fleetWorker)
	case *storeDir != "":
		var err error
		if artifacts, err = store.Open(*storeDir, *storeMB<<20); err != nil {
			return err
		}
		fmt.Printf("airshedd: artifact store at %s (%d entries, %.1f MiB)\n",
			artifacts.Dir(), artifacts.Len(), float64(artifacts.Bytes())/(1<<20))
	}
	if *fleetCoordinator && artifacts == nil {
		return fmt.Errorf("-fleet-coordinator requires -store (workers share the coordinator's store)")
	}
	if artifacts != nil && *verifyReads {
		artifacts.SetVerifyReads(true)
		fmt.Println("airshedd: paranoid read verification enabled (-verify-reads)")
	}

	// Crash-recovery journal: accepted-but-unfinished jobs and sweeps are
	// WAL-logged next to the store and resumed after a crash or kill -9.
	journal, err := openJournal(*journalPath, *storeDir)
	if err != nil {
		return err
	}
	if journal != nil {
		defer journal.Close()
		if w := journal.Warning(); w != nil {
			fmt.Fprintln(os.Stderr, "airshedd: journal recovery was partial:", w)
		}
	}

	scheduler := sched.New(sched.Options{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheMB << 20,
		JobTimeout:     *jobTimeout,
		HostWorkers:    *hostWorkers,
		Store:          artifacts,
		Retry:          resilience.RetryPolicy{MaxAttempts: *retries, Jitter: 0.5},
		Journal:        journal,
		WatchdogFactor: *watchdogFactor,
	})
	if n, err := scheduler.Recover(); err != nil {
		return fmt.Errorf("journal recovery: %w", err)
	} else if n > 0 {
		fmt.Printf("airshedd: journal: re-submitted %d unfinished jobs\n", n)
	}

	// Background store scrubber: re-verify artifacts at rest, quarantine
	// failures, repair by recompute through the scheduler. Only the
	// process that owns a directory store scrubs it — fleet workers read
	// the coordinator's store, which the coordinator scrubs.
	var scrubber *integrity.Scrubber
	if *storeDir != "" && *scrubInterval > 0 {
		scrubber = integrity.New(integrity.Options{
			Store:           artifacts,
			Interval:        *scrubInterval,
			RateBytesPerSec: int64(*scrubRateMB * (1 << 20)),
			Repair:          scheduler,
			Logf: func(format string, args ...any) {
				fmt.Printf("airshedd: "+format+"\n", args...)
			},
		})
		scrubber.Start()
		defer scrubber.Close()
		fmt.Printf("airshedd: store scrubber: every %s at %.0f MiB/s\n", *scrubInterval, *scrubRateMB)
	}

	var coordinator *fleet.Coordinator
	if *fleetCoordinator {
		// Durable sweep state: submissions are journaled before dispatch,
		// so a coordinator killed mid-sweep resumes on restart.
		coordinator = fleet.NewCoordinator(fleet.Options{
			HeartbeatTimeout: *fleetHBTimeout,
			PollInterval:     *fleetPoll,
			Journal:          journal,
			Store:            artifacts,
			HedgeFactor:      *fleetHedge,
			Logf: func(format string, args ...any) {
				fmt.Printf("airshedd: "+format+"\n", args...)
			},
		})
		defer coordinator.Close()
		if n, err := coordinator.Recover(); err != nil {
			return fmt.Errorf("fleet journal recovery: %w", err)
		} else if n > 0 {
			fmt.Printf("airshedd: fleet journal: resumed %d sweeps\n", n)
		}
	}

	// Conservative edge timeouts: slow-header clients are cut off, idle
	// keep-alives bounded. No WriteTimeout — /debug/pprof/profile
	// legitimately streams for 30s.
	role := ""
	switch {
	case coordinator != nil:
		role = "coordinator"
	case *fleetWorker != "":
		role = "worker"
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(scheduler, artifacts, *pprofFlag, coordinator, role).withJournal(journal).withScrubber(scrubber).handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("airshedd: %s listening on %s (%d workers, queue %d, cache %d entries)\n",
			version, *addr, *workers, *queueDepth, *cacheEntries)
		errc <- srv.ListenAndServe()
	}()

	var agent *fleet.Agent
	if *fleetWorker != "" {
		name, selfURL, err := workerIdentity(*addr, *fleetName, *fleetSelfURL)
		if err != nil {
			return err
		}
		agent, err = fleet.StartAgent(fleet.AgentOptions{
			Coordinator: *fleetWorker,
			SelfURL:     selfURL,
			Name:        name,
			Machine:     *fleetMachine,
			HostWorkers: *hostWorkers,
			Workers:     *workers,
			Version:     version,
			Interval:    *fleetHeartbeat,
			MaxBackoff:  *fleetMaxBackoff,
			Scheduler:   scheduler,
			Store:       artifacts,
			Logf: func(format string, args ...any) {
				fmt.Printf("airshedd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer agent.Stop()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Shutdown sequence: stop accepting HTTP first, then drain the
	// scheduler so queued jobs still execute (their clients may already
	// hold job IDs and will poll again after we restart).
	fmt.Println("airshedd: signal received, draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "airshedd: http shutdown:", err)
	}
	if err := scheduler.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Println("airshedd: drained, bye")
	return nil
}

// openJournal opens the daemon's one crash-recovery journal: path, or
// <store>/journal.wal when path is empty; nil for "off" or with neither
// set. The scheduler's jobs and the fleet coordinator's sweeps share it.
// A sweep journal kept apart by earlier versions, <store>/fleet.wal, is
// folded in.
func openJournal(path, storeDir string) (*resilience.Journal, error) {
	switch {
	case path == "off", path == "" && storeDir == "":
		return nil, nil
	case path == "":
		path = filepath.Join(storeDir, "journal.wal")
	}
	j, err := resilience.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if storeDir != "" {
		if err := foldLegacyJournal(j, filepath.Join(storeDir, "fleet.wal")); err != nil {
			j.Close()
			return nil, err
		}
	}
	return j, nil
}

// foldLegacyJournal moves the pending records of the journal file at
// legacy into j, in ID order, then deletes the file. A crash part-way
// folds again on the next boot: Accept of a pending ID overwrites it.
func foldLegacyJournal(j *resilience.Journal, legacy string) error {
	pending, err := resilience.ReadJournal(legacy)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := j.Accept(id, pending[id]); err != nil {
			return err
		}
	}
	if err := os.Remove(legacy); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if len(ids) > 0 {
		fmt.Printf("airshedd: journal: folded %d records of %s\n", len(ids), legacy)
	}
	return nil
}

// workerIdentity derives the fleet name and self URL a worker
// advertises from its listen address, unless overridden by flags. An
// unspecified or wildcard host becomes 127.0.0.1 — right for local
// fleets; multi-host fleets must pass -fleet-self-url explicitly.
func workerIdentity(addr, name, selfURL string) (string, string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", "", fmt.Errorf("cannot derive fleet identity from -addr %q: %w", addr, err)
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	if name == "" {
		name = net.JoinHostPort(host, port)
	}
	if selfURL == "" {
		selfURL = "http://" + net.JoinHostPort(host, port)
	}
	return name, selfURL, nil
}
