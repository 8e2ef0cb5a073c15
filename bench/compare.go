package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// series collects, per workload and end-to-end metric, the values of every
// untraced run in a result file, in file order.
type series map[string]map[string][]float64

func collect(rf resultFile) (s series, noisy bool) {
	s = make(series)
	for _, rec := range rf.Runs {
		if rec.Traced {
			continue
		}
		if rec.Env.Noisy {
			noisy = true
		}
		if s[rec.Workload] == nil {
			s[rec.Workload] = make(map[string][]float64)
		}
		for _, d := range endToEnd {
			if v, ok := rec.Metrics[d.Name]; ok {
				s[rec.Workload][d.Name] = append(s[rec.Workload][d.Name], v.Value)
			}
		}
	}
	return s, noisy
}

// worseBy is how much worse b is than a as a share of a, signed so that
// positive always means worse.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.Better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

// verdict applies the choosing-metrics rule to one (workload, metric) row:
// a median no worse than the bound is "ok"; a spread wider than the bound
// makes the row "unresolved" rather than unchanged, unless every run of
// the change beats every run of the parent; a noisy file never yields
// "regressed".
func verdict(d metricDef, old, new []float64, noisy bool) string {
	delta := worseBy(d, median(old), median(new))
	wide := spread(old) > d.Bound || spread(new) > d.Bound
	switch {
	case allBetter(d, old, new):
		return "improved"
	case wide:
		return "unresolved"
	case delta > d.Bound && noisy:
		return "unresolved (noisy run)"
	case delta > d.Bound:
		return "REGRESSED"
	default:
		return "ok"
	}
}

func runCompare(w io.Writer, oldPath, newPath string) error {
	oldRF, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	newRF, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	regressed := compareSeries(w, oldRF, newRF, false)
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) rows regressed beyond their bound", regressed)
	}
	return nil
}

// compareSeries prints one row per (workload, end-to-end metric) and
// returns the number of regressed rows. With paired set, runs i of the two
// files were measured back to back and the win count is reported too.
func compareSeries(w io.Writer, oldRF, newRF resultFile, paired bool) int {
	old, oldNoisy := collect(oldRF)
	new_, newNoisy := collect(newRF)
	noisy := oldNoisy || newNoisy
	if noisy {
		fmt.Fprintln(w, "note: at least one run started on a machine that was not idle; no regression is called from it")
	}
	fmt.Fprintf(w, "%-13s %-12s %12s %24s %12s %24s %8s %6s  %s\n",
		"workload", "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "worse%", "bound%", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := old[wl.Name][d.Name], new_[wl.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			v := verdict(d, a, b, noisy)
			if v == "REGRESSED" {
				regressed++
			}
			if paired {
				v = pairVerdict(d, a, b, v)
			}
			fmt.Fprintf(w, "%-13s %-12s %12.5g %24s %12.5g %24s %+8.2f %6.0f  %s\n",
				wl.Name, d.Name, median(a), fmt.Sprintf("[%.5g, %.5g]", aq1, aq3),
				median(b), fmt.Sprintf("[%.5g, %.5g]", bq1, bq3),
				100*worseBy(d, median(a), median(b)), 100*d.Bound, v)
		}
	}
	return regressed
}

// pairVerdict adds the guide's gain rule for paired runs: a gain is
// claimed only from ten or more pairs of which the change wins at least
// nine tenths (ties count for neither side), with medians that differ by
// more than the parent's own interquartile distance.
func pairVerdict(d metricDef, a, b []float64, v string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch w := worseBy(d, a[i], b[i]); {
		case w < 0:
			wins++
		case w > 0:
			losses++
		}
	}
	q1, q3 := quartiles(a)
	gap := median(a) - median(b)
	if gap < 0 {
		gap = -gap
	}
	gain := n >= 10 && float64(wins) >= 0.9*float64(n) && gap > q3-q1 && worseBy(d, median(a), median(b)) < 0
	tag := fmt.Sprintf("%s; change won %d/%d, lost %d", v, wins, n, losses)
	if gain {
		tag += "; GAIN"
	}
	return tag
}

// runSets is the repeatability self-check: the whole end-to-end pass K
// times on one commit, each metric's spread of per-set values against its
// bound. Disagreement is an error.
func runSets(k int, opt options, resultPath string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	opt.Traced = false
	var rf resultFile
	for set := 0; set < k; set++ {
		fmt.Fprintf(os.Stderr, "bench: set %d of %d\n", set+1, k)
		recs, err := runAll(self, root, opt, true)
		if err != nil {
			return err
		}
		rf.Runs = append(rf.Runs, recs...)
	}
	if resultPath == "" {
		resultPath = filepath.Join(outDir(root), "sets.json")
	}
	if err := writeResultFile(resultPath, rf); err != nil {
		return err
	}
	s, noisy := collect(rf)
	fmt.Printf("%-13s %-12s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "min", "median", "max", "range%", "bound%", "agree")
	disagree := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := s[wl.Name][d.Name]
			if len(xs) == 0 {
				continue
			}
			lo, hi, med := quantile(xs, 0), quantile(xs, 1), median(xs)
			rng := 0.0
			if med != 0 {
				rng = (hi - lo) / med
			}
			ok := "yes"
			if rng > d.Bound {
				ok = "NO"
				disagree++
			}
			fmt.Printf("%-13s %-12s %12.5g %12.5g %12.5g %8.2f %6.0f  %s\n", wl.Name, d.Name, lo, med, hi, 100*rng, 100*d.Bound, ok)
		}
	}
	for _, rec := range rf.Runs {
		if !rec.Correct {
			return fmt.Errorf("workload %s failed its correctness check", rec.Workload)
		}
	}
	fmt.Printf("results written to %s\n", resultPath)
	if disagree > 0 {
		if noisy {
			fmt.Println("note: the machine was loaded when a set started; rerun on a quiet machine")
		}
		return fmt.Errorf("%d (workload, metric) rows differ between sets by more than their bound", disagree)
	}
	return nil
}

// runPairs measures a base ref against the working tree: the base is
// exported with git archive into bench/out/, the working tree's bench/ is
// copied over it so both sides run identical benchmark code, both are
// built once, and N pairs alternate which side runs first.
func runPairs(n int, baseRef string, opt options) error {
	if baseRef == "" {
		return fmt.Errorf("-pairs needs -base <git ref>")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	opt.Traced = false
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return err
	}
	baseDir, err := os.MkdirTemp(outDir(root), "base-")
	if err != nil {
		return err
	}
	atExit(func() { os.RemoveAll(baseDir) })
	export := exec.Command("sh", "-c", `git -C "$1" archive "$2" | tar -x -C "$3"`, "sh", root, baseRef, baseDir)
	if out, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s: %w\n%s", baseRef, err, out)
	}
	if err := os.RemoveAll(filepath.Join(baseDir, "bench")); err != nil {
		return err
	}
	if err := copyBenchSources(filepath.Join(root, "bench"), filepath.Join(baseDir, "bench")); err != nil {
		return err
	}
	build := func(dir string) (string, error) {
		bin := filepath.Join(outDir(dir), "bench.bin")
		cmd := exec.Command("go", "build", "-o", bin, "./bench")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("building ./bench in %s: %w\n%s", dir, err, out)
		}
		return bin, nil
	}
	baseBin, err := build(baseDir)
	if err != nil {
		return err
	}
	changeBin, err := build(root)
	if err != nil {
		return err
	}
	atExit(func() { os.Remove(changeBin) })

	var baseRF, changeRF resultFile
	for i := 0; i < n; i++ {
		sides := []struct {
			bin, dir string
			rf       *resultFile
		}{{baseBin, baseDir, &baseRF}, {changeBin, root, &changeRF}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			fmt.Fprintf(os.Stderr, "bench: pair %d of %d, %s\n", i+1, n, s.dir)
			recs, err := runAll(s.bin, s.dir, opt, false)
			if err != nil {
				return err
			}
			s.rf.Runs = append(s.rf.Runs, recs...)
		}
	}
	basePath := filepath.Join(outDir(root), "pairs-base.json")
	changePath := filepath.Join(outDir(root), "pairs-change.json")
	if err := writeResultFile(basePath, baseRF); err != nil {
		return err
	}
	if err := writeResultFile(changePath, changeRF); err != nil {
		return err
	}
	fmt.Printf("base %s vs working tree, %d pairs, every run reported in %s and %s\n", baseRef, n, basePath, changePath)
	if compareSeries(os.Stdout, baseRF, changeRF, true) > 0 {
		return fmt.Errorf("the change regressed at least one (workload, metric) row beyond its bound")
	}
	return nil
}

// copyBenchSources copies the benchmark's own files, leaving bench/out
// behind.
func copyBenchSources(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
