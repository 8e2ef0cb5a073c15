package sr

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"airshed/internal/store"
)

// ErrNoMatrix reports a predict against a key that is neither resident
// nor in the artifact store.
type ErrNoMatrix struct{ Key string }

func (e *ErrNoMatrix) Error() string {
	return fmt.Sprintf("sr: no matrix %s (build it first)", e.Key)
}

// flight is one in-progress build, shared by every caller that asked
// for the same key while it ran.
type flight struct {
	done chan struct{}
	m    *Matrix
	err  error
}

// Service is the serving layer: it keeps built matrices resident in
// memory, pins their store blobs against garbage collection for as
// long as they are served, single-flights concurrent builds of the
// same key, and counts the metrics the daemon exports.
//
// Build progress is surfaced like any sweep: the builder drives a
// named sweep ("sr:<key prefix>") through the shared engine, so
// GET /v1/sweeps shows the perturbation runs while a build is live.
type Service struct {
	builder *Builder
	store   *store.Store // nil when the scheduler is compute-only

	mu       sync.Mutex
	resident map[string]*Matrix
	flights  map[string]*flight

	predicts   atomic.Uint64
	builds     atomic.Uint64
	serveNanos atomic.Uint64
	serveCount atomic.Uint64
}

// NewService wraps a builder; the store is taken from the builder's
// scheduler (nil when compute-only, in which case matrices live only
// in memory and nothing is pinned).
func NewService(b *Builder) *Service {
	return &Service{
		builder:  b,
		store:    b.eng.Scheduler().Store(),
		resident: make(map[string]*Matrix),
		flights:  make(map[string]*flight),
	}
}

// adopt makes a matrix resident and pins its blob so a GC sweep can
// never evict a matrix the daemon is serving. Callers hold s.mu.
func (s *Service) adoptLocked(m *Matrix) {
	if _, ok := s.resident[m.Key]; ok {
		return
	}
	s.resident[m.Key] = m
	if s.store != nil {
		s.store.Pin(store.SRMatrixKey(m.Key)) //nolint:errcheck // pin of a never-stored matrix is a no-op
	}
}

// lookup returns the resident matrix for a key, faulting it in from
// the artifact store (and pinning it) when necessary.
func (s *Service) lookup(key string) (*Matrix, error) {
	s.mu.Lock()
	m, ok := s.resident[key]
	s.mu.Unlock()
	if ok {
		return m, nil
	}
	if s.store != nil {
		var loaded Matrix
		if s.store.GetSRMatrix(key, &loaded) && loaded.Version == FormatVersion {
			s.mu.Lock()
			s.adoptLocked(&loaded)
			m = s.resident[key]
			s.mu.Unlock()
			return m, nil
		}
	}
	return nil, &ErrNoMatrix{Key: key}
}

// Lookup returns the matrix for a key when it is resident or stored,
// without ever building.
func (s *Service) Lookup(key string) (*Matrix, error) { return s.lookup(key) }

// Building reports whether a build of the key is currently in flight.
func (s *Service) Building(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.flights[key]
	return ok
}

// Predict answers one query against the matrix named by key: a pure
// matvec, no simulation. The serve time (lookup + matvec) feeds the
// airshedd_sr_serve_seconds metrics.
func (s *Service) Predict(key string, q Query) (*Prediction, error) {
	start := time.Now()
	m, err := s.lookup(key)
	if err != nil {
		return nil, err
	}
	p, err := m.Predict(q)
	if err != nil {
		return nil, err
	}
	s.predicts.Add(1)
	s.serveNanos.Add(uint64(time.Since(start).Nanoseconds()))
	s.serveCount.Add(1)
	return p, nil
}

// Build returns the matrix for the set, building it if needed.
// Concurrent calls for the same key share one build (single-flight);
// a key already resident or already in the store returns immediately.
// The returned bool reports whether this call performed (or joined) a
// real build rather than a lookup.
func (s *Service) Build(ctx context.Context, set Set) (*Matrix, bool, error) {
	if err := set.Validate(); err != nil {
		return nil, false, err
	}
	n := set.Normalize()
	key := n.Key()
	if m, err := s.lookup(key); err == nil {
		return m, false, nil
	}
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.m, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	m, err := s.builder.Build(ctx, n)
	f.m, f.err = m, err
	s.mu.Lock()
	delete(s.flights, key)
	if err == nil {
		s.adoptLocked(m)
		s.builds.Add(1)
	}
	s.mu.Unlock()
	close(f.done)
	return m, true, err
}

// MatrixInfo is the residency digest of one served matrix.
type MatrixInfo struct {
	Key       string  `json:"key"`
	Dataset   string  `json:"dataset"`
	Hours     int     `json:"hours"`
	Groups    int     `json:"groups"`
	Step      float64 `json:"step"`
	Receptors int     `json:"receptors"`
	Columns   int     `json:"columns"`
}

// Matrices lists the resident matrices in key order (for /healthz and
// the matrices endpoint).
func (s *Service) Matrices() []MatrixInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MatrixInfo, 0, len(s.resident))
	for _, m := range s.resident {
		out = append(out, MatrixInfo{
			Key:       m.Key,
			Dataset:   m.Base.Dataset,
			Hours:     m.Hours,
			Groups:    m.Groups,
			Step:      m.Step,
			Receptors: m.Receptors,
			Columns:   len(m.Columns),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Metrics is a snapshot of the service counters.
type Metrics struct {
	// Predicts counts served predictions, Builds completed builds.
	Predicts uint64
	Builds   uint64
	// ServeSeconds/ServeCount accumulate predict latency
	// (histogram-ish: the pair yields the mean; the daemon exports both
	// so scrapers can rate() them).
	ServeSeconds float64
	ServeCount   uint64
	// Resident is the number of matrices currently in memory.
	Resident int
}

// Metrics snapshots the counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	resident := len(s.resident)
	s.mu.Unlock()
	return Metrics{
		Predicts:     s.predicts.Load(),
		Builds:       s.builds.Load(),
		ServeSeconds: float64(s.serveNanos.Load()) / 1e9,
		ServeCount:   s.serveCount.Load(),
		Resident:     resident,
	}
}
