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
	"sync/atomic"
	"testing"
	"time"

	"airshed/internal/datasets"
	"airshed/internal/hourio"
	"airshed/internal/machine"
	"airshed/internal/resilience"
)

// TestPipelineSinksAndStreaming exercises the hour loop's sinks with
// real snapshot files, a SnapshotFunc sink and the OnHourEnd streaming
// hook. The hook must fire once per hour, in hour order, after the hour's
// file is on disk and its sink has returned; every file must parse and
// carry the sink's payload bit for bit.
func TestPipelineSinksAndStreaming(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, StartHour: 9, Hours: 4, SnapshotDir: t.TempDir()}
	snapPath := func(hour int) string {
		return filepath.Join(cfg.SnapshotDir, fmt.Sprintf("hour_%03d.snap", hour))
	}

	snaps := make(map[int][]float64)
	cfg.SnapshotFunc = func(hour int, conc []float64) error {
		snaps[hour] = append([]float64(nil), conc...)
		return nil
	}
	var sums []HourSummary
	cfg.OnHourEnd = func(hs HourSummary) {
		sums = append(sums, hs)
		if _, ok := snaps[hs.Hour]; !ok {
			t.Errorf("OnHourEnd for hour %d fired before its SnapshotFunc", hs.Hour)
		}
		if _, err := os.Stat(snapPath(hs.Hour)); err != nil {
			t.Errorf("OnHourEnd for hour %d fired before its snapshot file: %v", hs.Hour, err)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	if len(sums) != cfg.Hours {
		t.Fatalf("OnHourEnd fired %d times, want %d", len(sums), cfg.Hours)
	}
	for i, hs := range sums {
		if want := cfg.StartHour + i; hs.Hour != want {
			t.Errorf("summary %d is hour %d, want %d (hook must fire in hour order)", i, hs.Hour, want)
		}
	}
	for hour, want := range snaps {
		f, err := os.Open(snapPath(hour))
		if err != nil {
			t.Fatalf("snapshot missing: %v", err)
		}
		h, _, _, _, conc, _, err := hourio.ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatalf("hour %d snapshot unreadable: %v", hour, err)
		}
		if h != hour || !reflect.DeepEqual(conc, want) {
			t.Fatalf("hour %d snapshot header/content differs from the sink payload", hour)
		}
	}
}

// TestPipelineCancellation kills a run from inside the first hour's
// streaming hook and asserts the contract: the run surfaces the
// cancellation, its dedicated engine is joined (no leak), and every
// snapshot file that exists parses cleanly (no torn file is left behind).
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
		StartHour: 7, Hours: 7, SnapshotDir: dir,
		OnHourEnd: func(hs HourSummary) { cancel() },
	}
	_, err = RunContext(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v does not wrap context.Canceled", err)
	}

	assertEngineJoined(t, before)

	// No torn writes: whatever reached disk is whole.
	wholeSnapshotHours(t, dir)
}

// assertEngineJoined fails if more goroutines are alive than before the
// run: a HostWorkers > 0 run joins its dedicated engine before returning
// (allow the runtime a moment to retire the workers).
func assertEngineJoined(t *testing.T, before int) {
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
// driver polls Err at every hour head and at every inner step, so the
// cancellation lands inside the armed hour's step loop — a deterministic
// mid-hour cancel.
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

// TestHourLoopErrorPaths drives the hour loop's failure exits: the
// snapshot sink failing at hour k, and a cancellation landing inside hour
// k's step loop. Either way the error names hour k, nothing of an hour
// past k reaches disk, no engine goroutine outlives the run, and
// OnHourEnd has fired for exactly the hours before k.
func TestHourLoopErrorPaths(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	const first, k = 9, 11
	errSink := errors.New("sink down")

	for _, mode := range []string{"sink", "cancel"} {
		// "depth0" names the inline hour loop; the prefix keeps the
		// subtest IDs stable.
		t.Run("depth0/"+mode, func(t *testing.T) {
			before := runtime.NumGoroutine()
			base, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &stepCancelCtx{Context: base, cancel: cancel}

			var ended []int
			cfg := Config{
				Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2, HostWorkers: 1,
				StartHour: first, Hours: 5, SnapshotDir: t.TempDir(),
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
			assertEngineJoined(t, before)

			for _, h := range wholeSnapshotHours(t, cfg.SnapshotDir) {
				if h > lastSnap {
					t.Errorf("hour %d snapshot exists past the failed hour", h)
				}
			}
			if want := []int{first, first + 1}; !reflect.DeepEqual(ended, want) {
				t.Errorf("OnHourEnd fired for hours %v, want %v", ended, want)
			}
		})
	}
}

// TestPipelineStageFaultsTransient fires the injector at each hour-loop
// I/O stage and asserts the fault-determinism rule (DESIGN.md §6d): the
// run fails (faults never corrupt), the error is transient (the
// scheduler's retry loop engages on it), and a fault-free rerun of the
// same simulation is bit-identical to the baseline.
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

	for _, point := range []string{resilience.PointPipePrefetch, resilience.PointPipeWrite} {
		if resilience.Enabled() {
			t.Fatal("injector already active")
		}
		inj := resilience.New(42).SetLimited(point, 1, 1)
		resilience.Enable(inj)
		_, err := Run(cfg)
		resilience.Disable()
		if err == nil {
			t.Fatalf("%s: faulted run unexpectedly completed", point)
		}
		if !resilience.IsTransient(err) {
			t.Errorf("%s: fault surfaced as permanent: %v", point, err)
		}
		if inj.Fired(point) != 1 {
			t.Errorf("%s: fired %d faults, want 1", point, inj.Fired(point))
		}
		// The failure left no corrupt state behind: a clean rerun of a
		// fresh simulation matches the baseline exactly.
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: rerun: %v", point, err)
		}
		compareResults(t, point+"-rerun", base, res)
	}
}
