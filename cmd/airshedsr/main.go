// Command airshedsr builds and queries source–receptor matrices
// offline — the CLI counterpart of the daemon's /v1/sr endpoints.
//
// A build expands the base scenario into its perturbation set (one run
// per source group × species knob plus the base and global bumps),
// drives the runs through the sweep engine, and assembles the matrix;
// with -store the runs and the finished matrix persist, so a daemon
// pointed at the same store serves the matrix without rebuilding, and a
// re-build of the same set is pure store reads.
//
// Usage:
//
//	airshedsr build -dataset mini -hours 6 -groups 4 -store /var/lib/airshed
//	airshedsr predict -store /var/lib/airshed -key <matrix key> -nox 0.8 -voc 1.1
//	airshedsr predict -store /var/lib/airshed -key <key> -delta 0:nox:-0.2 -delta 3:voc:+0.1
//
// predict answers from the stored matrix alone — no simulation, no
// scheduler; it works on a machine that has never run the model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/sr"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "predict":
		err = runPredict(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "airshedsr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  airshedsr build   -dataset D -machine M -nodes N -hours H -groups G [-step S] [-knobs nox,voc] [-store DIR] [-workers W]
  airshedsr predict -store DIR -key KEY [-nox X] [-voc Y] [-delta group:knob:delta]...`)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		dataset = fs.String("dataset", "mini", "data set (la, ne, mini)")
		mach    = fs.String("machine", "gohost", "machine profile")
		nodes   = fs.Int("nodes", 1, "node count for the perturbation runs")
		hours   = fs.Int("hours", 2, "simulated hours")
		groups  = fs.Int("groups", 4, "source groups partitioning the grid")
		step    = fs.Float64("step", sr.DefaultStep, "finite-difference step")
		knobs   = fs.String("knobs", "nox,voc", "species knobs (comma-separated)")
		dir     = fs.String("store", "", "artifact store directory (persists runs + matrix)")
		workers = fs.Int("workers", 2, "concurrent perturbation runs")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	set := sr.Set{
		Base:   scenario.Spec{Dataset: *dataset, Machine: *mach, Nodes: *nodes, Hours: *hours},
		Groups: *groups,
		Step:   *step,
		Knobs:  strings.Split(*knobs, ","),
	}
	if err := set.Validate(); err != nil {
		return err
	}

	opts := sched.Options{Workers: *workers}
	if *dir != "" {
		st, err := store.Open(*dir, 0)
		if err != nil {
			return err
		}
		opts.Store = st
	}
	s := sched.New(opts)
	defer s.Shutdown(context.Background()) //nolint:errcheck

	n := set.Normalize()
	fmt.Printf("building matrix %s (%d runs: base + %d knobs x (global + %d groups))\n",
		n.Key(), len(n.Specs()), len(n.Knobs), n.Groups)
	m, err := sr.NewBuilder(sweep.NewEngine(s)).Build(context.Background(), set)
	if err != nil {
		return err
	}
	fmt.Printf("built  key=%s receptors=%d hours=%d columns=%d\n",
		m.Key, m.Receptors, m.Hours, len(m.Columns))
	if *dir == "" {
		fmt.Println("note: no -store given; the matrix was not persisted")
	} else {
		fmt.Printf("stored in %s; query with: airshedsr predict -store %s -key %s\n", *dir, *dir, m.Key)
	}
	return nil
}

// parseDelta parses "group:knob:delta", e.g. "2:nox:-0.15".
func parseDelta(s string) (sr.GroupDelta, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return sr.GroupDelta{}, fmt.Errorf("bad -delta %q (want group:knob:delta)", s)
	}
	g, err := strconv.Atoi(parts[0])
	if err != nil {
		return sr.GroupDelta{}, fmt.Errorf("bad -delta group in %q: %v", s, err)
	}
	d, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return sr.GroupDelta{}, fmt.Errorf("bad -delta value in %q: %v", s, err)
	}
	return sr.GroupDelta{Group: g, Knob: parts[1], Delta: d}, nil
}

type deltaList []sr.GroupDelta

func (d *deltaList) String() string { return fmt.Sprint(*d) }
func (d *deltaList) Set(s string) error {
	gd, err := parseDelta(s)
	if err != nil {
		return err
	}
	*d = append(*d, gd)
	return nil
}

func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	var (
		dir    = fs.String("store", "", "artifact store directory holding the matrix")
		key    = fs.String("key", "", "matrix key (printed by build)")
		nox    = fs.Float64("nox", 1.0, "global NOx emission scale")
		voc    = fs.Float64("voc", 1.0, "global VOC emission scale")
		deltas deltaList
	)
	fs.Var(&deltas, "delta", "per-group delta as group:knob:delta (repeatable)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *dir == "" || *key == "" {
		return fmt.Errorf("predict needs -store and -key")
	}

	st, err := store.Open(*dir, 0)
	if err != nil {
		return err
	}
	var m sr.Matrix
	if !st.GetSRMatrix(*key, &m) {
		return fmt.Errorf("no matrix %s in %s (run airshedsr build first)", *key, *dir)
	}
	if m.Version != sr.FormatVersion {
		return fmt.Errorf("matrix %s has format v%d, this binary speaks v%d", *key, m.Version, sr.FormatVersion)
	}

	p, err := m.Predict(sr.Query{NOxScale: *nox, VOCScale: *voc, GroupDeltas: deltas})
	if err != nil {
		return err
	}
	fmt.Printf("matrix    %s (%s, %dh, %d groups, step %g)\n", m.Key, m.Base.Dataset, m.Hours, m.Groups, m.Step)
	fmt.Printf("query     nox x%.3f, voc x%.3f, %d group deltas\n", *nox, *voc, len(deltas))
	fmt.Printf("peak O3       %.6f ppm (column max over %dh)\n", p.PeakO3, m.Hours)
	fmt.Printf("ground peak   %.6f ppm at cell %d\n", p.GroundPeakO3, p.GroundPeakCell)
	fmt.Printf("risk index    %.4f (vs base %.4f)\n", p.RiskIndex, m.BaseRisk)
	return nil
}
