package main

import (
	"fmt"
	"io"
)

// printRecord prints one workload run: every metric by name with unit,
// sample count and tail, then the verdict of the correctness check.
func printRecord(w io.Writer, rec runRecord) {
	pass := "end-to-end"
	if rec.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  [%s, seed %d, %d s budget, %.1f s wall]\n", rec.Workload, pass, rec.Env.Seed, rec.Seconds, rec.WallS)
	// Each row ends with what the number means on this workload (end-to-end)
	// or which end-to-end metric it should move (per-layer).
	type row struct{ name, note string }
	var rows []row
	if rec.Traced {
		for _, d := range perLayer {
			rows = append(rows, row{d.Name, "-> " + d.Moves})
		}
	} else {
		for _, d := range endToEnd {
			rows = append(rows, row{d.Name, endToEndMeaning[rec.Workload][d.Name]})
		}
	}
	for _, r := range rows {
		v := rec.Metrics[r.name]
		if rec.Traced && v.N == 0 {
			continue // not measured by this workload
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-8s n=%-6d %-24s %s\n", r.name, v.Value, v.Unit, v.N, v.Tail, r.note)
	}
	ratio := 0.0
	if rec.Attempted > 0 {
		ratio = float64(rec.Failed) / float64(rec.Attempted)
	}
	verdict := "PASS"
	if !rec.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  %-30s %14.6g %-8s n=%-6d correctness %s\n", "fail_ratio", ratio, "ratio", rec.Attempted, verdict)
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "    check failed: %s\n", c)
	}
	if rec.Env.Noisy {
		fmt.Fprintf(w, "  noisy: other processes were using %.0f%% of the machine when the run started\n", 100*rec.Env.BusyStart)
	}
}

// aliasValue derives one ISSUE-named metric from the generic one.
func aliasValue(a issueAlias, recs []runRecord) (float64, bool) {
	for _, rec := range recs {
		if rec.Workload != a.Workload || rec.Traced {
			continue
		}
		v, ok := rec.Metrics[a.Metric]
		if !ok || v.Value == 0 {
			return 0, false
		}
		if a.Invert {
			return 1000 / v.Value, true
		}
		return v.Value * a.Scale, true
	}
	return 0, false
}

// printAliases prints the workload-specific names later issues use for the
// generic end-to-end metrics.
func printAliases(w io.Writer, recs []runRecord) {
	fmt.Fprintln(w, "== named end-to-end metrics (setup_s, rss_mb, fail_ratio are per workload above)")
	for _, a := range issueAliases {
		if v, ok := aliasValue(a, recs); ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s (%s %s)\n", a.Name, v, a.Unit, a.Workload, a.Metric)
		}
	}
}
