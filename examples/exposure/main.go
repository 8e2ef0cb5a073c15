// Exposure: the paper's Section 6 multidisciplinary application — Airshed
// coupled with the population exposure model (PopExp) through the
// foreign-module interface. The Airshed simulation runs natively and
// writes hourly concentration snapshots; PopExp runs as a genuinely
// separate PVM-parallel module consuming them, with the hourly fields
// crossing the coupling boundary through typed pack/unpack buffers —
// exactly the representative-task pattern of the paper's Figure 10.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"airshed"
	frn "airshed/internal/foreign"
	"airshed/internal/hourio"
	"airshed/internal/popexp"
	"airshed/internal/report"
)

func main() {
	hours := flag.Int("hours", 6, "simulated hours")
	workers := flag.Int("workers", 4, "PVM PopExp worker tasks")
	flag.Parse()
	if err := run(*hours, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "exposure:", err)
		os.Exit(1)
	}
}

func run(hours, workers int) error {
	ds, err := airshed.LA()
	if err != nil {
		return err
	}

	// Population: ~12 million people concentrated on the urban core.
	pop, err := popexp.SyntheticPopulation(ds.Grid(), 90e3, 100e3, 40e3, 12e6)
	if err != nil {
		return err
	}
	model, err := popexp.NewModel(ds.Mechanism())
	if err != nil {
		return err
	}
	coupler, err := frn.NewCoupler(model, pop, ds.Shape.Species, ds.Shape.Layers, workers)
	if err != nil {
		return err
	}
	defer coupler.Stop()

	fmt.Printf("Airshed + PopExp: %d hours over the LA basin, PopExp as a PVM foreign module (%d workers)\n\n",
		hours, workers)

	// Run Airshed once, writing hourly snapshots.
	snapDir, err := os.MkdirTemp("", "airshed-exposure-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)
	res, err := airshed.Run(airshed.Config{
		Dataset:     ds,
		Machine:     airshed.CrayT3E(),
		Nodes:       16,
		Hours:       hours,
		SnapshotDir: snapDir,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Airshed done: %.1f virtual seconds on 16 T3E nodes, peak O3 %.4f ppm\n\n",
		res.Ledger.Total, res.PeakO3)

	// Feed every hourly snapshot through the foreign module.
	total := model.NewExposure()
	for h := 0; h < hours; h++ {
		f, err := os.Open(filepath.Join(snapDir, fmt.Sprintf("hour_%03d.snap", h)))
		if err != nil {
			return err
		}
		_, _, _, _, conc, _, err := hourio.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		exp, err := coupler.ProcessHour(conc)
		if err != nil {
			return err
		}
		total.Add(exp)
	}

	tb := report.NewTable(
		fmt.Sprintf("Population dose by cohort over %d hours (person-ppm-hours)", total.Hours),
		append([]string{"Cohort"}, popexp.TrackedSpecies...)...)
	for c := range total.Dose {
		row := []interface{}{fmt.Sprintf("cohort %d", c)}
		for _, v := range total.Dose[c] {
			row = append(row, v)
		}
		tb.AddRow(row...)
	}
	if err := tb.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("population risk index: %.3f\n", model.RiskIndex(total))
	st := coupler.Stats()
	fmt.Printf("coupling boundary traffic: %d messages, %.2f MB\n",
		st.MsgsSent+st.MsgsRecv, float64(st.BytesSent+st.BytesRecv)/1e6)
	return nil
}
