// Package fleet scales the scenario service past one host: a
// coordinator airshedd expands a sweep request exactly as the local
// sweep engine would, bin-packs the resulting specs into shards using
// the Section 4 performance model's a-priori cost estimates
// (perfmodel.CostEstimate) against each registered worker's advertised
// machine profile and host-worker count (greedy LPT, warm-start
// families kept whole), and dispatches every shard over HTTP to an
// airshedd running in -fleet-worker mode. Workers register at boot,
// heartbeat queue depth and store counters, and read/write all
// artifacts through the coordinator's store (store.HTTPBackend against
// the coordinator's /v1/fleet/blobs), so a result computed anywhere is
// immediately servable from the coordinator's /v1/runs and /v1/sweeps.
//
// Failure semantics lean on the idempotency the store and journal
// layers already provide: a worker that misses its heartbeat window (or
// whose shard polls fail repeatedly) is declared lost and its whole
// shard is re-packed across the surviving workers. Specs the dead
// worker did finish were persisted through the coordinator's store, so
// their re-execution resolves as a store hit; unfinished specs
// recompute bit-identically (spec-hash keying, deterministic numerics).
// Reassignment therefore never double-counts and never diverges — the
// fleet integration test asserts a kill-mid-sweep run is bit-identical
// to a single-daemon run.
//
// The coordinator itself is also a fault domain. With a journal
// configured — the daemon's one WAL, shared with the scheduler's jobs and
// split by ID namespace ("fs:" sweeps and "sh:" shards are the
// coordinator's) — sweep submissions are written ahead (CRC-framed,
// fsynced) before any dispatch, so a coordinator killed mid-sweep and
// restarted reconciles on Recover: journaled specs whose results already
// sit in the store count as completed, the remainder re-pack across
// workers as they re-register, and the sweep finishes bit-identical to
// an uninterrupted run. Dispatch and blob traffic retry transient network
// failures under a deterministic-jitter backoff, per-worker circuit
// breakers keep a flapping worker from absorbing dispatches, and
// straggler shards are hedged — speculatively re-dispatched to an idle
// worker, first completion wins — because duplicated work is harmless
// when every artifact is content-addressed and idempotent to write.
package fleet

import (
	"time"

	"airshed/internal/store"
)

// RegisterRequest is a worker's registration (and re-registration —
// posting again updates the record in place).
type RegisterRequest struct {
	// Name is the worker's unique registry key.
	Name string `json:"name"`
	// URL is the worker's base URL as reachable from the coordinator
	// (e.g. "http://host:8081").
	URL string `json:"url"`
	// Machine is the worker's machine.ByName profile key.
	Machine string `json:"machine"`
	// HostWorkers is the host-parallel width jobs run at on this worker.
	HostWorkers int `json:"host_workers"`
	// Workers is the worker's scheduler pool size.
	Workers int `json:"workers"`
	// Version is the worker's build version, so operators can detect
	// mixed-version fleets from /v1/fleet/workers.
	Version string `json:"version,omitempty"`
}

// Heartbeat is a worker's periodic liveness report.
type Heartbeat struct {
	Name        string `json:"name"`
	QueueDepth  int    `json:"queue_depth"`
	BusyWorkers int    `json:"busy_workers"`
	// Store is the worker's view of its (HTTP-backed) store counters.
	Store store.Counters `json:"store"`
}

// WorkerView is the registry's public view of one worker.
type WorkerView struct {
	Name        string    `json:"name"`
	URL         string    `json:"url"`
	Machine     string    `json:"machine"`
	HostWorkers int       `json:"host_workers"`
	Workers     int       `json:"workers"`
	Version     string    `json:"version,omitempty"`
	Registered  time.Time `json:"registered"`
	LastSeen    time.Time `json:"last_seen"`
	Lost        bool      `json:"lost,omitempty"`
	QueueDepth  int       `json:"queue_depth"`
	BusyWorkers int       `json:"busy_workers"`
	// Quarantined is the worker's cumulative quarantined-artifact count
	// (sick-store signal; non-zero halves its packing weight).
	Quarantined uint64 `json:"quarantined,omitempty"`
	// Breaker is the worker's dispatch circuit-breaker state ("closed",
	// "half-open", "open"); empty until the first dispatch touches it.
	Breaker string `json:"breaker,omitempty"`
}

// ShardStatus is the live view of one dispatched shard.
type ShardStatus struct {
	// Worker is the shard's assigned worker name.
	Worker string `json:"worker"`
	// RemoteID is the sweep ID the worker issued for this shard.
	RemoteID string `json:"remote_id,omitempty"`
	// Specs is the shard's spec count.
	Specs int `json:"specs"`
	// State is "dispatching", "running", "done", "lost" (re-packed into
	// later shards) or "cancelled" (lost the hedge race to its twin).
	State string `json:"state"`
	// Completed and Failed mirror the worker's sweep progress.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Hedge marks a speculative twin dispatched against a straggler.
	Hedge bool `json:"hedge,omitempty"`
}

// SweepStatus is a point-in-time snapshot of one fleet sweep.
type SweepStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"` // "running", "done" or "failed"
	Error string `json:"error,omitempty"`

	// Total is the expanded spec count; Completed and Failed aggregate
	// the live (non-lost) shards.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// Reassigned counts shards re-packed after a worker loss.
	Reassigned int `json:"reassigned"`
	// Recovered counts specs a coordinator restart resolved directly from
	// the store (work finished before the crash); included in Completed.
	Recovered int `json:"recovered,omitempty"`

	Shards []ShardStatus `json:"shards"`

	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// Gauges is a snapshot of the coordinator's fleet metrics for /metrics.
type Gauges struct {
	WorkersRegistered int
	WorkersLive       int
	WorkersLost       int
	SweepsStarted     int
	SweepsRunning     int
	SweepsRecovered   int
	ShardsDispatched  int
	ShardsReassigned  int
	Hedges            int
	BreakersOpen      int
}
