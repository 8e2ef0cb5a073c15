package fx

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"airshed/internal/resilience"
)

// Engine is the host execution engine: a fixed pool of worker goroutines
// that executes contiguous work chunks, sized by the physical host
// (GOMAXPROCS) rather than by the virtual node decomposition. The paper's
// science decomposition (layers to nodes for transport, cell columns to
// nodes for chemistry) stays what it is — the engine only decides which
// host core executes which span of it, the kernel/execution-mapping split
// the ESCAPE dwarfs report argues for.
//
// Determinism contract: Run gives every chunk a fixed [lo, hi) span of
// the item index space and callers write per-item results into fixed
// slots of a shared record array. Reductions are then performed by the
// caller in index order, so results are bit-identical for any worker
// count, any chunk size, and any execution interleaving. One worker
// executes the chunks in index order on one goroutine: the serial
// reference.
//
// An Engine is safe for concurrent use: multiple simulations may issue
// Run calls against one shared pool, and each chunk learns the pool
// worker index executing it so callers can maintain per-worker scratch
// (operators, field buffers) without locking. A chunk body must never
// call Run on its own engine (the nested call could wait on workers that
// are all waiting on it).
type Engine struct {
	workers int
	queue   chan chunk
	wg      sync.WaitGroup

	// Gauges and counters for /metrics.
	active atomic.Int64 // chunks executing right now
	queued atomic.Int64 // chunks waiting in the queue
	chunks atomic.Int64 // chunks executed since creation
	runs   atomic.Int64 // Run calls completed since creation
	panics atomic.Int64 // chunk panics contained since creation
}

// chunk is one scheduled span of a Run call.
type chunk struct {
	lo, hi int
	slot   int
	fn     func(worker, lo, hi int) error
	state  *runState
}

// runState collects one Run call's outcome: per-chunk error slots (fixed
// by chunk index, so the reported error is deterministic) and the
// completion barrier.
type runState struct {
	errs []error
	wg   sync.WaitGroup
}

// chunksPerWorker oversubscribes the chunk count so imbalanced spans
// (daytime chemistry columns cost far more than night ones) rebalance
// across the pool instead of stalling the phase on its slowest span.
const chunksPerWorker = 4

// NewEngine starts an engine with the given pool size; workers <= 0
// means GOMAXPROCS. Close releases the pool.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: workers,
		queue:   make(chan chunk, 4*workers),
	}
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go e.worker(w)
	}
	return e
}

// worker executes chunks until the queue closes. w is the stable pool
// index handed to every chunk body this goroutine runs.
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	for c := range e.queue {
		e.queued.Add(-1)
		e.active.Add(1)
		if err := e.runChunk(w, c); err != nil {
			c.state.errs[c.slot] = err
		}
		e.active.Add(-1)
		e.chunks.Add(1)
		c.state.wg.Done()
	}
}

// runChunk executes one chunk body with panic containment: a panicking
// kernel becomes a deterministic per-slot PanicError (the job fails, the
// pool survives) instead of killing the process. The recover lives here,
// inside the per-chunk frame, so the completion barrier above always
// fires.
func (e *Engine) runChunk(w int, c chunk) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			err = resilience.NewPanicError(r, debug.Stack())
		}
	}()
	if err := resilience.Fire(resilience.PointFxChunk); err != nil {
		return err
	}
	return c.fn(w, c.lo, c.hi)
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Run splits the item space [0, n) into balanced contiguous spans and
// executes fn once per span on the pool, blocking until every span has
// finished. fn receives the executing pool worker's index (for
// per-worker scratch) and its span. The first error in chunk-index order
// is returned, annotated with its span.
func (e *Engine) Run(n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	nch := e.workers * chunksPerWorker
	if nch > n {
		nch = n
	}
	st := &runState{errs: make([]error, nch)}
	st.wg.Add(nch)
	for i := 0; i < nch; i++ {
		e.queued.Add(1)
		e.queue <- chunk{
			lo:    i * n / nch,
			hi:    (i + 1) * n / nch,
			slot:  i,
			fn:    fn,
			state: st,
		}
	}
	st.wg.Wait()
	e.runs.Add(1)
	for i, err := range st.errs {
		if err != nil {
			return fmt.Errorf("fx: chunk [%d,%d): %w", i*n/nch, (i+1)*n/nch, err)
		}
	}
	return nil
}

// Close shuts the pool down after in-flight chunks finish. Run must not
// be called after (or concurrently with) Close.
func (e *Engine) Close() {
	close(e.queue)
	e.wg.Wait()
}

// EngineStats is a point-in-time snapshot of the engine gauges.
type EngineStats struct {
	// Workers is the fixed pool size.
	Workers int
	// Active is the number of chunks executing right now.
	Active int
	// Queued is the chunk queue depth (scheduled, not yet picked up).
	Queued int
	// Chunks counts chunks executed since the engine started.
	Chunks int64
	// Runs counts completed Run calls (phases) since the engine started.
	Runs int64
	// Panics counts chunk panics contained since the engine started.
	Panics int64
}

// Stats snapshots the gauges; safe to call concurrently with Run.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Workers: e.workers,
		Active:  int(e.active.Load()),
		Queued:  int(e.queued.Load()),
		Chunks:  e.chunks.Load(),
		Runs:    e.runs.Load(),
		Panics:  e.panics.Load(),
	}
}

var (
	sharedOnce   sync.Once
	sharedEngine *Engine
)

// SharedEngine returns the process-wide engine, created on first use
// with GOMAXPROCS workers and never closed. Every simulation that does
// not ask for a dedicated pool schedules onto it, so a daemon running
// several concurrent jobs keeps total host parallelism at the machine
// size instead of jobs × virtual nodes.
func SharedEngine() *Engine {
	sharedOnce.Do(func() {
		sharedEngine = NewEngine(0)
	})
	return sharedEngine
}
