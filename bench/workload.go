package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// runCtx is what one workload run receives: its inputs all derive from
// Seed, and the programs under test see only those generated inputs.
type runCtx struct {
	Root    string        // module root (source tree, testdata/)
	Scratch string        // per-process directory under bench/out/, removed at exit
	Seed    int64         //
	Budget  time.Duration // how long to measure (--seconds)
	Quick   bool          // smoke-test sizing: dataset mini, one repetition
	Trace   *tracer       // nil in the untraced pass
	Procs   int           // load-generator goroutines / connections / sched workers
}

func (c *runCtx) traced() bool { return c.Trace != nil }

// rng returns a generator for one named input stream, so adding a stream
// never changes what another one draws for the same seed.
func (c *runCtx) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(c.Seed*7919 + int64(h.Sum64())))
}

// tempDir makes a fresh directory inside the run's scratch area.
func (c *runCtx) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(c.Scratch, pattern+"-*")
}

// value is one reported number. N is the sample count behind it and Tail
// the highest percentile that sample supports (timings only).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Tail  string  `json:"tail,omitempty"`
}

// outcome is a finished workload run.
type outcome struct {
	Attempted int
	Failed    int
	// Checks lists the correctness checks that failed, in words; empty
	// means the outputs were verified correct.
	Checks []string
	// Metrics holds the end-to-end metrics (untraced pass) or the
	// per-layer metrics (traced pass), by name.
	Metrics map[string]value
}

func newOutcome() *outcome { return &outcome{Metrics: make(map[string]value)} }

func (o *outcome) set(name string, v float64, n int, tail string) {
	o.Metrics[name] = value{Value: v, N: n, Tail: tail}
}

// fail books one failed operation with the reason.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
}

// check books a failed correctness check that is not tied to one operation
// (it still makes the run incorrect).
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
	}
}

// finish keeps the pass's own metrics (end-to-end or per-layer), fills
// units from the catalogue and zero-fills what this workload does not
// measure: the driver wants every name on every run.
func (o *outcome) finish(traced bool) {
	known := make(map[string]bool)
	want := make(map[string]string)
	for _, d := range perLayer {
		known[d.Name] = true
		if traced {
			want[d.Name] = d.Unit
		}
	}
	for _, d := range endToEnd {
		known[d.Name] = true
		if !traced {
			want[d.Name] = d.Unit
		}
	}
	for name := range o.Metrics {
		if !known[name] {
			panic("bench: metric " + name + " is not in the catalogue")
		}
		if _, ok := want[name]; !ok {
			delete(o.Metrics, name)
		}
	}
	for name, unit := range want {
		v := o.Metrics[name]
		v.Unit = unit
		o.Metrics[name] = v
	}
}

// repeat runs op until one more repetition as short as the shortest so far
// would overrun the budget by more than a tenth: at least once, and exactly
// once in quick mode or when once is set. The first error stops the loop.
// Stopping before the overrun, not after it, keeps a run's wall time near
// its budget whatever one repetition costs; a second repetition always runs
// when the first fitted the budget, because one sample has no fast side.
func (c *runCtx) repeat(once bool, op func(rep int) error) error {
	var shortest time.Duration
	for rep, start := 0, time.Now(); ; rep++ {
		t0 := time.Now()
		if err := op(rep); err != nil {
			return err
		}
		if d := time.Since(t0); rep == 0 || d < shortest {
			shortest = d
		}
		if once || c.Quick {
			return nil
		}
		elapsed := time.Since(start)
		if rep == 0 && elapsed < c.Budget {
			continue
		}
		if elapsed+shortest > c.Budget+c.Budget/10 {
			return nil
		}
	}
}

// probe times fn n times after warm warm-up calls and returns the per-call
// durations; each timed call is also a span in the trace.
func probe(c *runCtx, name, layer string, warm, n int, fn func() error) ([]time.Duration, error) {
	for i := 0; i < warm; i++ {
		if err := fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = t1.Sub(t0)
		c.Trace.add(span{Name: name, Layer: layer, ID: "probe", Parent: -1, Start: t0, End: t1})
	}
	return ds, nil
}

// setProbe records the median of a probe in the given unit.
func (o *outcome) setProbe(name string, ds []time.Duration, per time.Duration) {
	t := summarize(durationsTo(ds, per))
	o.set(name, t.Median, t.N, t.tailLabel(1))
}

// overheadPct is (traced - untraced) / untraced in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// copyTree copies a directory of regular files (a seeded store); os.CopyFS
// needs a newer Go than go.mod allows.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode().Perm())
	})
}
