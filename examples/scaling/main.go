// Scaling: the paper's performance-portability study in miniature — run
// the Airshed numerics once, then price the identical computation on the
// Intel Paragon, Cray T3D and Cray T3E across node counts, in both the
// data-parallel and the pipelined task-parallel mode, and check the
// analytic model's prediction against each measurement.
package main

import (
	"flag"
	"fmt"
	"os"

	"airshed"
	"airshed/internal/report"
)

func main() {
	hours := flag.Int("hours", 4, "simulated hours to trace")
	dataset := flag.String("dataset", "la", "data set: la, ne or mini")
	flag.Parse()
	if err := run(*hours, *dataset); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

func run(hours int, dataset string) error {
	ds, err := airshed.DatasetByName(dataset)
	if err != nil {
		return err
	}
	fmt.Printf("Tracing %s (%v) for %d hours...\n\n", ds.Name, ds.Shape, hours)
	res, err := airshed.Run(airshed.Config{
		Dataset: ds,
		Machine: airshed.CrayT3E(),
		Nodes:   1,
		Hours:   hours,
	})
	if err != nil {
		return err
	}
	tr := res.Trace

	machines := []*airshed.MachineProfile{airshed.CrayT3E(), airshed.CrayT3D(), airshed.IntelParagon()}
	nodes := []int{1, 4, 8, 16, 32, 64, 128}

	tb := report.NewTable("Execution time (s), data-parallel",
		"Nodes", machines[0].Name, machines[1].Name, machines[2].Name)
	sp := report.NewTable("Speedup over 1 node",
		"Nodes", machines[0].Name, machines[1].Name, machines[2].Name)
	seq := map[string]float64{}
	for _, p := range nodes {
		trow := []interface{}{p}
		srow := []interface{}{p}
		for _, prof := range machines {
			rr, err := airshed.Replay(tr, prof, p, airshed.DataParallel)
			if err != nil {
				return err
			}
			if p == 1 {
				seq[prof.Name] = rr.Ledger.Total
			}
			trow = append(trow, rr.Ledger.Total)
			srow = append(srow, seq[prof.Name]/rr.Ledger.Total)
		}
		tb.AddRow(trow...)
		sp.AddRow(srow...)
	}
	if err := tb.Write(os.Stdout); err != nil {
		return err
	}
	if err := sp.Write(os.Stdout); err != nil {
		return err
	}

	// Task parallelism: the Section 5 pipeline on the Paragon.
	tt := report.NewTable("Task parallelism on the Intel Paragon",
		"Nodes", "Data-parallel (s)", "Task+data (s)", "Improvement %")
	for _, p := range []int{8, 16, 32, 64} {
		dp, err := airshed.Replay(tr, airshed.IntelParagon(), p, airshed.DataParallel)
		if err != nil {
			return err
		}
		tp, err := airshed.Replay(tr, airshed.IntelParagon(), p, airshed.TaskParallel)
		if err != nil {
			return err
		}
		tt.AddRow(p, dp.Ledger.Total, tp.Ledger.Total,
			100*(dp.Ledger.Total-tp.Ledger.Total)/dp.Ledger.Total)
	}
	if err := tt.Write(os.Stdout); err != nil {
		return err
	}

	// The analytic model's accuracy.
	pm := report.NewTable("Analytic model vs measurement (Cray T3E)",
		"Nodes", "Predicted (s)", "Measured (s)", "Error %")
	for _, p := range []int{4, 16, 64} {
		pred, err := airshed.Predict(tr, airshed.CrayT3E(), p)
		if err != nil {
			return err
		}
		meas, err := airshed.Replay(tr, airshed.CrayT3E(), p, airshed.DataParallel)
		if err != nil {
			return err
		}
		pm.AddRow(p, pred.Total, meas.Ledger.Total,
			100*(pred.Total-meas.Ledger.Total)/meas.Ledger.Total)
	}
	return pm.Write(os.Stdout)
}
