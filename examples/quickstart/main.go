// Quickstart: run the Airshed model on the Los Angeles basin data set for
// a few hours on 16 virtual Cray T3E nodes, then print the component time
// ledger and basic air-quality diagnostics — the smallest end-to-end use
// of the library's public API.
package main

import (
	"flag"
	"fmt"
	"os"

	"airshed"
)

func main() {
	hours := flag.Int("hours", 4, "simulated hours")
	nodes := flag.Int("nodes", 16, "virtual T3E nodes")
	flag.Parse()

	if err := run(*hours, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(hours, nodes int) error {
	ds, err := airshed.LA()
	if err != nil {
		return err
	}
	fmt.Printf("Airshed quickstart: %s data set, concentration array %v\n", ds.Name, ds.Shape)
	fmt.Printf("grid: %s\n\n", ds.Grid().Stats())

	res, err := airshed.Run(airshed.Config{
		Dataset: ds,
		Machine: airshed.CrayT3E(),
		Nodes:   nodes,
		Hours:   hours,
		Mode:    airshed.DataParallel,
	})
	if err != nil {
		return err
	}

	fmt.Printf("virtual execution time on %d T3E nodes: %.1f s for %d simulated hours\n",
		nodes, res.Ledger.Total, hours)
	fmt.Print(res.Ledger.String())
	fmt.Printf("\ninner steps taken: %d (determined at runtime from the hourly winds)\n", res.TotalSteps)
	fmt.Printf("peak ground-level ozone: %.4f ppm at grid cell %d\n", res.PeakO3, res.PeakO3Cell)

	// The same trace priced for the two other machines of the paper —
	// performance portability in one loop.
	fmt.Println("\nthe identical run priced for the paper's other machines:")
	for _, prof := range []*airshed.MachineProfile{airshed.CrayT3D(), airshed.IntelParagon()} {
		rr, err := airshed.Replay(res.Trace, prof, nodes, airshed.DataParallel)
		if err != nil {
			return err
		}
		fmt.Printf("  %-14s %8.1f s\n", prof.Name, rr.Ledger.Total)
	}
	return nil
}
