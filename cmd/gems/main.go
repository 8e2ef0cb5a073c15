// Command gems runs a declarative Airshed study — the batch equivalent of
// the GEMS problem-solving environment through which the paper's
// environmental scientists drive the integrated Airshed + PopExp
// application (Section 6, Figure 10).
//
// Usage:
//
//	gems study.json
//	gems -workers 4 study.json         # strategies run concurrently
//	gems -store /var/lib/airshed study.json
//	gems -print-example > study.json   # a template to edit
//
// A study file selects the data set, machine, node count and simulated
// hours, lists emission-control strategies (NOx/VOC scalings, optional
// delayed activation hours), and optionally enables the PVM population
// exposure module and monitoring stations. The command executes every
// strategy and prints the comparison tables.
//
// The strategies run as one batch on the sweep engine (internal/sweep):
// -workers sets how many execute concurrently, and -store keeps every
// run's results and hourly checkpoints in a persistent artifact store,
// so repeated studies resolve instantly and delayed-control strategies
// warm-start from their shared baseline instead of recomputing it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"airshed/internal/gems"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

const exampleStudy = `{
  "name": "LA basin control strategy study",
  "dataset": "la",
  "machine": "t3e",
  "nodes": 16,
  "hours": 12,
  "task_parallel": false,
  "strategies": [
    {"name": "baseline", "nox": 1.0, "voc": 1.0},
    {"name": "25% NOx cut", "nox": 0.75, "voc": 1.0},
    {"name": "25% VOC cut", "nox": 1.0, "voc": 0.75},
    {"name": "25% NOx cut from hour 8", "nox": 0.75, "voc": 1.0, "control_start_hour": 8}
  ],
  "popexp": {"enabled": true, "population": 12e6, "workers": 4},
  "stations": {
    "downtown": [90000, 100000],
    "coastal": [30000, 80000],
    "inland": [160000, 120000]
  }
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gems:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		printExample = flag.Bool("print-example", false, "print a template study file and exit")
		workers      = flag.Int("workers", 1, "run strategies concurrently on this many workers (1 = sequential)")
		storeDir     = flag.String("store", "", "artifact store directory for results and warm-start checkpoints")
		storeMB      = flag.Int64("store-mb", 2048, "artifact store size cap in MiB (<= 0 unlimited)")
	)
	flag.Parse()
	if *printExample {
		fmt.Print(exampleStudy)
		return nil
	}
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: gems [flags] study.json (see -print-example)")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	study, err := gems.ParseStudy(f)
	f.Close()
	if err != nil {
		return err
	}

	var artifacts *store.Store
	if *storeDir != "" {
		if artifacts, err = store.Open(*storeDir, *storeMB<<20); err != nil {
			return err
		}
	}
	scheduler := sched.New(sched.Options{Workers: *workers, Store: artifacts})
	defer scheduler.Shutdown(context.Background()) //nolint:errcheck

	out, err := gems.Run(study, os.Stderr, sweep.NewEngine(scheduler))
	if err != nil {
		return err
	}
	return out.Report(os.Stdout)
}
