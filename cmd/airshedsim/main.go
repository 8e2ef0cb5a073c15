// Command airshedsim runs one Airshed simulation: it executes the real
// numerics of the selected data set and reports the virtual execution time
// the run would have taken on the selected 1990s parallel computer, broken
// down by component, exactly as the paper's experiments do.
//
// The flags assemble an internal/scenario spec — the same canonical
// description cmd/airshedd serves over HTTP — so invalid combinations
// (unknown dataset or machine, zero nodes, task mode on two nodes) fail
// up front with a one-line error instead of deep inside the run.
//
// Usage:
//
//	airshedsim -dataset la -machine t3e -nodes 16 -hours 24 -mode data
//	airshedsim -dataset mini -machine paragon -nodes 8 -mode task -snapshots out/
//	airshedsim -dataset mini -machine t3e -nodes 4 -hours 2 -nox 0.5 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"airshed/internal/core"
	"airshed/internal/report"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/vm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "airshedsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset  = flag.String("dataset", "la", "data set: la, ne or mini")
		machName = flag.String("machine", "t3e", "machine profile: t3e, t3d, paragon, gohost")
		nodes    = flag.Int("nodes", 16, "virtual machine size P")
		hours    = flag.Int("hours", 24, "simulated hours")
		modeStr  = flag.String("mode", "data", "parallelisation: data or task")
		noxScale = flag.Float64("nox", 1.0, "NOx emission scale (control-strategy knob)")
		vocScale = flag.Float64("voc", 1.0, "VOC emission scale (control-strategy knob)")
		snapDir  = flag.String("snapshots", "", "write hourly concentration snapshots to this directory")
		csv      = flag.Bool("csv", false, "emit the component table as CSV")
		jsonOut  = flag.Bool("json", false, "emit the run summary as JSON instead of tables")
		saveTr   = flag.String("save-trace", "", "save the work trace to this file for later replay")
		restart  = flag.String("restart", "", "resume from this hourly snapshot file (sets the start hour and initial state)")
		workers  = flag.Int("workers", 0, "host engine workers (0 = shared GOMAXPROCS pool, 1 = serial reference)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the run to this file")

		// Fault-injection knobs for resilience testing: a fixed seed and
		// rate reproduce the exact same fault schedule every invocation.
		faultSeed    = flag.Uint64("fault-seed", 0, "deterministic fault-injection seed (with -fault-rate)")
		faultRate    = flag.Float64("fault-rate", 0, "inject transient faults at hour-I/O points with this probability (0 disables)")
		faultRetries = flag.Int("fault-retries", 3, "attempts per run under injected faults (1 = no retries)")

		// Integrity knobs: the physics sentinels are on by default (a run
		// that goes non-physical fails with a typed diagnostic before the
		// bad hour is persisted); -max-run-seconds bounds the whole run.
		noSentinels = flag.Bool("no-sentinels", false, "disable the per-hour physics sentinels (NaN/negative scan + mass ledger)")
		massBound   = flag.Float64("mass-drift-bound", 0, "mass-ledger trip factor per hour (0 = default 10)")
		maxRunSecs  = flag.Float64("max-run-seconds", 0, "abort the run after this many wall seconds (0 = no deadline)")
	)
	flag.Parse()
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}

	spec := scenario.Spec{
		Dataset:  *dataset,
		Machine:  *machName,
		Nodes:    *nodes,
		Hours:    *hours,
		Mode:     *modeStr,
		NOxScale: *noxScale,
		VOCScale: *vocScale,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	cfg.SnapshotDir = *snapDir
	cfg.HostWorkers = *workers
	cfg.DisableSentinels = *noSentinels
	cfg.MassDriftBound = *massBound
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return err
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Written after the run (see below); create eagerly so a bad path
		// fails before hours of simulation rather than after.
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "airshedsim: heap profile:", err)
			}
			f.Close()
		}()
	}

	if !*jsonOut {
		fmt.Printf("Airshed: %s data set %v, %s, %d nodes, %d hours, %s\n",
			cfg.Dataset.Name, cfg.Dataset.Shape, cfg.Machine.Name, cfg.Nodes, cfg.Hours, cfg.Mode)
	}
	if *faultRate > 0 {
		inj := resilience.New(*faultSeed)
		for _, pt := range []string{resilience.PointHourRead, resilience.PointHourWrite} {
			inj.Set(pt, *faultRate)
		}
		resilience.Enable(inj)
		defer resilience.Disable()
		if !*jsonOut {
			fmt.Printf("fault injection: seed %d, rate %.3f at hour-I/O points, %d attempts\n",
				*faultSeed, *faultRate, *faultRetries)
		}
	}

	// Run deadline: the context flows into the driver, which checks it
	// between time steps — the CLI equivalent of airshedd's per-job
	// deadline propagation.
	ctx := context.Background()
	if *maxRunSecs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(*maxRunSecs*float64(time.Second)))
		defer cancel()
	}

	var res *core.Result
	runOnce := func(int) error {
		if *restart != "" {
			if !*jsonOut {
				fmt.Printf("resuming from snapshot %s\n", *restart)
			}
			res, err = core.RestartContext(ctx, *restart, cfg)
		} else {
			res, err = core.RunContext(ctx, cfg)
		}
		return err
	}
	policy := resilience.RetryPolicy{MaxAttempts: *faultRetries, Jitter: 0.5, Seed: *faultSeed}
	attempts, err := resilience.Retry(ctx, policy, resilience.HashKey(spec.Hash()), runOnce, nil)
	if err != nil {
		return err
	}
	if attempts > 1 && !*jsonOut {
		fmt.Printf("run succeeded on attempt %d after transient faults\n", attempts)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report.Summarize(res)); err != nil {
			return err
		}
	} else {
		tb := report.NewTable("Virtual execution time by component", "Component", "Seconds", "Share %")
		total := res.Ledger.Total
		for _, cat := range vm.Categories() {
			if secs := res.Ledger.ByCat[cat]; secs != 0 {
				tb.AddRow(cat.String(), secs, 100*secs/total)
			}
		}
		tb.AddRow("TOTAL", total, 100.0)
		if *csv {
			if err := tb.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else if err := tb.Write(os.Stdout); err != nil {
			return err
		}

		ct := report.NewTable("Redistribution steps", "Kind", "Count", "Seconds")
		for _, k := range core.RedistKinds() {
			ct.AddRow(k, res.RedistCounts[k], res.CommSeconds[k])
		}
		if err := ct.Write(os.Stdout); err != nil {
			return err
		}

		fmt.Printf("inner time steps: %d (runtime determined from hourly winds)\n", res.TotalSteps)
		fmt.Printf("parallel efficiency: %.1f%% (average node busy fraction)\n", 100*res.Efficiency)
		fmt.Printf("peak ground-level ozone: %.4f ppm at cell %d\n", res.PeakO3, res.PeakO3Cell)
	}

	if *saveTr != "" {
		if err := core.SaveTrace(*saveTr, res.Trace); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("work trace saved to %s\n", *saveTr)
		}
	}
	return nil
}
