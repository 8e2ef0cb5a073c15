package core

import (
	"fmt"
	"testing"

	"airshed/internal/datasets"
	"airshed/internal/machine"
)

// benchPipelineConfig is the slow-provider harness of the pipeline
// benchmark: a physical multi-hour Mini run whose hour I/O is throttled
// to a bandwidth that makes the I/O stages comparable to an hour's
// compute — the regime of the paper's Section 5 measurements, where
// input/output processing consumed a large fraction of each hour at 64
// Paragon nodes. Depth 0 pays compute + I/O per hour; depth N pays
// max(compute, I/O) plus fill/drain, which is the measured win.
func benchPipelineConfig(b *testing.B) Config {
	b.Helper()
	ds, err := datasets.Mini()
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Dataset: ds, Machine: machine.CrayT3E(), Nodes: 2,
		StartHour: 8, Hours: 6,
		IOBytesPerSec: 256 << 10,
	}
}

// BenchmarkHourPipeline measures the wall-clock of one full multi-hour
// run, depth 0 (inline stages) vs depth N (overlapped), under the
// slow-provider throttle. The determinism matrix guarantees every depth
// produces bit-identical results, so the delta is pure overlap.
func BenchmarkHourPipeline(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
	}{
		{"depth0", 0},
		{"pipelined-depth1", 1},
		{"pipelined-depth2", 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchPipelineConfig(b)
			cfg.PipelineDepth = bc.depth
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMiniHourPhysical is retained from the figure harness era as
// the unthrottled single-hour baseline the pipeline numbers are read
// against (no I/O throttle, no pipeline: pure compute cost of an hour).
func BenchmarkHourPipelineUnthrottled(b *testing.B) {
	for _, depth := range []int{0, 2} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			cfg := benchPipelineConfig(b)
			cfg.IOBytesPerSec = 0
			cfg.PipelineDepth = depth
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
