// Policy: the use case the paper gives for Airshed — "An important use of
// Airshed is to help in the development of environmental policies. The
// effect of air pollution control measures can be evaluated at a low
// cost making it possible to select the best strategy under a given set
// of constraints."
//
// This example evaluates four emission-control strategies for the Los
// Angeles basin by simulating the same day under each and comparing peak
// ground-level ozone, the area and population exceeding the era's 1-hour
// ozone standard (0.12 ppm), and the change in secondary pollutants — the
// classic NOx-vs-VOC control question of urban photochemistry.
package main

import (
	"flag"
	"fmt"
	"os"

	"airshed"
	"airshed/internal/analysis"
	"airshed/internal/core"
	"airshed/internal/popexp"
	"airshed/internal/report"
)

func main() {
	hours := flag.Int("hours", 12, "simulated hours per strategy (cover the photochemical day)")
	flag.Parse()
	if err := run(*hours); err != nil {
		fmt.Fprintln(os.Stderr, "policy:", err)
		os.Exit(1)
	}
}

func run(hours int) error {
	strategies := []struct {
		name     string
		nox, voc float64
	}{
		{"baseline inventory", 1.00, 1.00},
		{"25% NOx reduction", 0.75, 1.00},
		{"25% VOC reduction", 1.00, 0.75},
		{"25% combined reduction", 0.75, 0.75},
	}

	fmt.Printf("Evaluating %d control strategies over the Los Angeles basin (%d h each)...\n\n",
		len(strategies), hours)

	type outcome struct {
		res *core.Result
		ex  *analysis.Exceedance
	}
	outcomes := make([]outcome, 0, len(strategies))

	var an *analysis.Analyzer
	var pop *popexp.Population
	for _, s := range strategies {
		ds, err := airshed.LAControls(s.nox, s.voc)
		if err != nil {
			return err
		}
		if an == nil {
			if an, err = analysis.New(ds.Grid(), ds.Mechanism()); err != nil {
				return err
			}
			if pop, err = popexp.SyntheticPopulation(ds.Grid(), 90e3, 100e3, 40e3, 12e6); err != nil {
				return err
			}
		}
		res, err := airshed.Run(airshed.Config{
			Dataset: ds,
			Machine: airshed.CrayT3E(),
			Nodes:   16,
			Hours:   hours,
		})
		if err != nil {
			return err
		}
		ex, err := an.Exceedance(res.Final, ds.Shape.Layers, "O3", analysis.OzoneNAAQS1Hour, pop)
		if err != nil {
			return err
		}
		outcomes = append(outcomes, outcome{res, ex})
		fmt.Printf("  %-24s done (peak O3 %.4f ppm, %d cells above the 0.12 ppm standard)\n",
			s.name, res.PeakO3, ex.Cells)
	}
	fmt.Println()

	base := outcomes[0].res
	tb := report.NewTable("Control strategy evaluation (end of run)",
		"Strategy", "Peak O3 (ppm)", "vs baseline %",
		"Exceedance area (km2)", "Population exposed", "Steps")
	for i, s := range strategies {
		o := outcomes[i]
		tb.AddRow(s.name, o.res.PeakO3, 100*(o.res.PeakO3-base.PeakO3)/base.PeakO3,
			o.ex.AreaKm2, o.ex.Population, o.res.TotalSteps)
	}
	if err := tb.Write(os.Stdout); err != nil {
		return err
	}

	// Secondary pollutant response of the most aggressive strategy.
	ds, err := airshed.LA()
	if err != nil {
		return err
	}
	deltas, err := an.CompareRuns(base.Final, outcomes[3].res.Final, ds.Shape.Layers,
		[]string{"O3", "NO2", "HNO3", "PAN", "ASO4"})
	if err != nil {
		return err
	}
	dt := report.NewTable("Combined 25% reduction vs baseline, ground-layer changes",
		"Species", "Baseline max (ppm)", "Strategy max (ppm)", "Max change %", "Mean change %")
	for _, d := range deltas {
		dt.AddRow(d.Species, d.BaseMax, d.AltMax, d.MaxChangePct, d.MeanChangePct)
	}
	if err := dt.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println("Note: in VOC-limited urban cores (like this scenario's), NOx-only cuts can raise")
	fmt.Println("peak ozone while VOC cuts lower it — the trade-off airshed models exist to expose.")
	return nil
}
