package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"airshed/internal/datasets"
	"airshed/internal/hourio"
	"airshed/internal/machine"
	"airshed/internal/resilience"
)

// pipelineConfigs is the streaming determinism matrix: pipeline depths 1
// and 2 crossed with the one-worker engine and the shared engine. Every
// cell must be byte-identical to the depth-0 engine-1 baseline — results,
// ledgers, traces, virtual time.
func pipelineConfigs() []struct {
	name        string
	depth       int
	hostWorkers int
} {
	return []struct {
		name        string
		depth       int
		hostWorkers int
	}{
		{"pipe1-engine-1", 1, 1},
		{"pipe2-engine-1", 2, 1},
		{"pipe1-engine-shared", 1, 0},
		{fmt.Sprintf("pipe2-engine-shared-%d", runtime.GOMAXPROCS(0)), 2, 0},
	}
}

// runPipelineMatrix runs cfg at depth 0 on one worker as the baseline,
// then under every pipeline configuration, demanding byte-identical
// results.
func runPipelineMatrix(t *testing.T, cfg Config) {
	t.Helper()
	cfg.HostWorkers = 1
	base, err := Run(cfg)
	if err != nil {
		t.Fatalf("depth-0 baseline: %v", err)
	}
	for _, pc := range pipelineConfigs() {
		c := cfg
		c.PipelineDepth = pc.depth
		c.HostWorkers = pc.hostWorkers
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		compareResults(t, pc.name, base, res)
	}
}

// TestPipelineDeterminismMini pins the overlapped stages bit-identical
// to the inline ones over the Mini set across a night-to-peak window at
// a ragged node decomposition.
func TestPipelineDeterminismMini(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	runPipelineMatrix(t, Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 3, StartHour: 7, Hours: 7})
}

// TestPipelineDeterminismLA pins the pipeline on the real LA basin at
// peak chemistry load; -short skips it.
func TestPipelineDeterminismLA(t *testing.T) {
	if testing.Short() {
		t.Skip("LA pipeline determinism skipped in short mode")
	}
	ds, err := datasets.LA()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 4, StartHour: 12, Hours: 2}
	base, err := Run(cfg)
	if err != nil {
		t.Fatalf("depth-0 baseline: %v", err)
	}
	c := cfg
	c.PipelineDepth = 1
	res, err := Run(c)
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	compareResults(t, "pipe1-LA", base, res)
}

// TestPipelineSinksAndStreaming exercises the full concurrent surface
// under the race detector: prefetch ‖ compute ‖ async writer with real
// snapshot files, a SnapshotFunc sink and the OnHourEnd streaming hook.
// The hook must fire once per hour, in hour order, on the driver
// goroutine, at any depth; the written snapshots and sink payloads must
// match the depth-0 run's bit for bit.
func TestPipelineSinksAndStreaming(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, StartHour: 9, Hours: 4}

	type sunk struct {
		hour int
		conc []float64
	}
	run := func(depth int) (sums []HourSummary, snaps map[int][]float64, dir string) {
		t.Helper()
		c := cfg
		c.PipelineDepth = depth
		c.SnapshotDir = t.TempDir()
		var mu sync.Mutex
		snaps = make(map[int][]float64)
		c.SnapshotFunc = func(hour int, conc []float64) error {
			mu.Lock()
			defer mu.Unlock()
			snaps[hour] = append([]float64(nil), conc...)
			return nil
		}
		c.OnHourEnd = func(hs HourSummary) { sums = append(sums, hs) }
		if _, err := Run(c); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return sums, snaps, c.SnapshotDir
	}

	inlineSums, inlineSnaps, _ := run(0)
	pipeSums, pipeSnaps, pipeDir := run(2)

	if len(inlineSums) != cfg.Hours || len(pipeSums) != cfg.Hours {
		t.Fatalf("OnHourEnd fired %d/%d times, want %d", len(inlineSums), len(pipeSums), cfg.Hours)
	}
	for i := range inlineSums {
		if inlineSums[i] != pipeSums[i] {
			t.Errorf("hour summary %d: depth 0 %+v, depth 2 %+v", i, inlineSums[i], pipeSums[i])
		}
		if want := cfg.StartHour + i; inlineSums[i].Hour != want {
			t.Errorf("summary %d is hour %d, want %d (hook must fire in hour order)", i, inlineSums[i].Hour, want)
		}
	}
	for hour, want := range inlineSnaps {
		got := pipeSnaps[hour]
		if len(got) != len(want) {
			t.Fatalf("hour %d sink payload length %d, want %d", hour, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hour %d sink payload diverged at %d", hour, i)
			}
		}
	}
	// The async writer's files parse and carry the sink payloads.
	for hour, want := range pipeSnaps {
		f, err := os.Open(filepath.Join(pipeDir, fmt.Sprintf("hour_%03d.snap", hour)))
		if err != nil {
			t.Fatalf("pipelined snapshot missing: %v", err)
		}
		h, _, _, _, conc, _, err := hourio.ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatalf("hour %d snapshot unreadable: %v", hour, err)
		}
		if h != hour || len(conc) != len(want) {
			t.Fatalf("hour %d snapshot header/content mismatch", hour)
		}
	}
}

// TestPipelineCancellation kills a pipelined run from inside the first
// hour's streaming hook and asserts the contract: the run surfaces the
// cancellation, both stage goroutines are joined (no leak), and every
// snapshot file that exists parses cleanly (an aborted writer never
// leaves a torn file behind — in-flight writes complete, queued ones
// are dropped whole).
func TestPipelineCancellation(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	cfg := Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, HostWorkers: 1,
		StartHour: 7, Hours: 7, PipelineDepth: 2, SnapshotDir: dir,
		OnHourEnd: func(hs HourSummary) { cancel() },
	}
	_, err = RunContext(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v does not wrap context.Canceled", err)
	}

	assertStagesJoined(t, before)

	// No torn writes: whatever the writer got to disk is whole.
	wholeSnapshotHours(t, dir)
}

// assertStagesJoined fails if more goroutines are alive than before the
// run: the hour loop joins its stage goroutines, and a HostWorkers > 0
// run its dedicated engine, before returning (allow the runtime a moment
// to retire them).
func assertStagesJoined(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines leaked: %d before, %d after the run", before, after)
	}
}

// wholeSnapshotHours parses every hour_*.snap in dir (a torn file is an
// error) and returns the hours found, ascending.
func wholeSnapshotHours(t *testing.T, dir string) []int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "hour_*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var hours []int
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		hour, _, _, _, _, _, rerr := hourio.ReadSnapshot(f)
		f.Close()
		if rerr != nil {
			t.Errorf("%s is torn: %v", filepath.Base(path), rerr)
		}
		hours = append(hours, hour)
	}
	return hours
}

// stepCancelCtx cancels itself on the second Err poll after arm. The
// driver polls Err at every hour head (depth 0 only: at depth > 0 the
// prefetch goroutine polls a derived context) and at every inner step,
// so the cancellation lands inside the armed hour's step loop at any
// depth — a deterministic mid-hour cancel.
type stepCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64 // polls left once armed; 0 = not armed or spent
}

func (c *stepCancelCtx) arm() { c.polls.Store(2) }

func (c *stepCancelCtx) Err() error {
	if c.polls.Load() > 0 && c.polls.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestHourLoopErrorPaths drives the hour loop's failure exits with the
// stages inline (depth 0) and overlapped (depth 2): the snapshot sink
// failing at hour k, and a cancellation landing inside hour k's step
// loop. Either way the error names hour k, nothing of an hour past k
// reaches disk, and no stage goroutine outlives the run; with the stages
// inline, OnHourEnd has fired for exactly the hours before k.
func TestHourLoopErrorPaths(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	const first, k = 9, 11
	errSink := errors.New("sink down")

	for _, depth := range []int{0, 2} {
		for _, mode := range []string{"sink", "cancel"} {
			t.Run(fmt.Sprintf("depth%d/%s", depth, mode), func(t *testing.T) {
				before := runtime.NumGoroutine()
				base, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx := &stepCancelCtx{Context: base, cancel: cancel}

				var ended []int
				cfg := Config{
					Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, HostWorkers: 1,
					StartHour: first, Hours: 5, PipelineDepth: depth, SnapshotDir: t.TempDir(),
					OnHourEnd: func(hs HourSummary) {
						ended = append(ended, hs.Hour)
						if mode == "cancel" && hs.Hour == k-1 {
							ctx.arm()
						}
					},
				}
				lastSnap := k - 1 // a cancelled hour k never reaches the output stage
				if mode == "sink" {
					lastSnap = k // the file is written before the sink is fed
					cfg.SnapshotFunc = func(hour int, conc []float64) error {
						if hour == k {
							return errSink
						}
						return nil
					}
				}

				_, err := RunContext(ctx, cfg)
				if err == nil {
					t.Fatal("run completed")
				}
				want, cause := fmt.Sprintf("snapshot sink at hour %d", k), errSink
				if mode == "cancel" {
					want, cause = fmt.Sprintf("abandoned at hour %d step", k), context.Canceled
				}
				if !errors.Is(err, cause) || !strings.Contains(err.Error(), want) {
					t.Errorf("error %q: want %q wrapping %v", err, want, cause)
				}
				if resilience.IsTransient(err) {
					t.Errorf("error %q is transient: a retry would fail the same way", err)
				}
				assertStagesJoined(t, before)

				for _, h := range wholeSnapshotHours(t, cfg.SnapshotDir) {
					if h > lastSnap {
						t.Errorf("hour %d snapshot exists past the failed hour", h)
					}
				}
				// Compute may run ahead of a failing async sink; everywhere
				// else the hook has fired for exactly the hours before k.
				if depth == 0 || mode == "cancel" {
					if want := []int{first, first + 1}; !reflect.DeepEqual(ended, want) {
						t.Errorf("OnHourEnd fired for hours %v, want %v", ended, want)
					}
				}
			})
		}
	}
}

// TestPipelineStageFaultsTransient fires the injector at each stage
// boundary, with the stages inline (depth 0) and overlapped (depth 1),
// and asserts PR 5 semantics: the run fails (faults never corrupt), the
// error is transient (the scheduler's retry loop engages on it), and a
// fault-free rerun of the same simulation is bit-identical to the
// baseline.
func TestPipelineStageFaultsTransient(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, StartHour: 10, Hours: 2}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, depth := range []int{0, 1} {
		cfg.PipelineDepth = depth
		for _, point := range []string{resilience.PointPipePrefetch, resilience.PointPipeWrite} {
			name := fmt.Sprintf("depth%d/%s", depth, point)
			if resilience.Enabled() {
				t.Fatal("injector already active")
			}
			inj := resilience.New(42).SetLimited(point, 1, 1)
			resilience.Enable(inj)
			_, err := Run(cfg)
			resilience.Disable()
			if err == nil {
				t.Fatalf("%s: faulted run unexpectedly completed", name)
			}
			if !resilience.IsTransient(err) {
				t.Errorf("%s: fault surfaced as permanent: %v", name, err)
			}
			if inj.Fired(point) != 1 {
				t.Errorf("%s: fired %d faults, want 1", name, inj.Fired(point))
			}
			// The failure left no corrupt state behind: a clean rerun of a
			// fresh simulation matches the baseline exactly.
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: rerun: %v", name, err)
			}
			compareResults(t, name+"-rerun", base, res)
		}
	}
}

// TestPipelineStatsMove asserts the /metrics gauges account a pipelined
// run: one prefetch per hour, one async write per hour, queue drained.
func TestPipelineStatsMove(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	beforeStats := ReadPipelineStats()
	cfg := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 1, StartHour: 12, Hours: 3, PipelineDepth: 2}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	after := ReadPipelineStats()
	if got := after.PrefetchedHours - beforeStats.PrefetchedHours; got < uint64(cfg.Hours) {
		t.Errorf("prefetched %d hours, want >= %d", got, cfg.Hours)
	}
	if got := after.WrittenHours - beforeStats.WrittenHours; got < uint64(cfg.Hours) {
		t.Errorf("wrote %d hours async, want >= %d", got, cfg.Hours)
	}
	if hits := after.PrefetchHits + after.PrefetchStalls - beforeStats.PrefetchHits - beforeStats.PrefetchStalls; hits < uint64(cfg.Hours) {
		t.Errorf("hit+stall = %d, want >= %d", hits, cfg.Hours)
	}
	if after.Depth != 2 {
		t.Errorf("depth gauge = %d, want 2", after.Depth)
	}
}

// TestPipelineThrottledOverlap sanity-checks the slow-provider harness
// the pipeline benchmark relies on: with the same throttle, the depth-2
// run must be faster than the depth-0 run because the sleeps move off
// the critical path — while results stay identical.
func TestPipelineThrottledOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in short mode")
	}
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2,
		StartHour: 8, Hours: 5,
		// 256 KB/s makes an hour's I/O comparable to its compute — the
		// I/O-bound regime of the paper's Paragon runs (same throttle as
		// BenchmarkHourPipeline, which measures ~40% recovered).
		IOBytesPerSec: 256 << 10,
	}
	inlineStart := time.Now()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inlineDur := time.Since(inlineStart)

	c := cfg
	c.PipelineDepth = 2
	pipeStart := time.Now()
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	pipeDur := time.Since(pipeStart)

	compareResults(t, "throttled-pipe", base, res)
	// The benchmark shows ~40% recovered; assert a conservative slice of
	// it so host noise cannot flake the suite.
	if pipeDur > inlineDur*9/10 {
		t.Errorf("pipelined %v recovered <10%% of depth-0 %v under an I/O-bound throttle", pipeDur, inlineDur)
	}
}
