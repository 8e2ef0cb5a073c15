package airshed

import (
	"context"
	"sync"
	"testing"

	"airshed/internal/core"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/sr"
	"airshed/internal/sweep"
)

// The SR serving-path benchmarks back the ≥10⁴× claim in DESIGN.md §6f:
// BenchmarkSRPredict measures one scenario answered by matrix–vector
// product against a prebuilt source–receptor matrix; BenchmarkSRColdRun
// measures the same scenario answered the pre-SR way, one full cold
// simulation. Both run the identical mini/1h physics so the ratio is
// the serving speedup; on the ladder the same quantity is sr.predict_us
// against a cold run's latency_ms (go run ./bench -pairs).

var (
	srBenchMu sync.Mutex
	srBenchM  *sr.Matrix
)

func srBenchSpec() scenario.Spec {
	return scenario.Spec{Dataset: "mini", Machine: "gohost", Nodes: 1, Hours: 1}
}

// srBenchMatrix builds (once per process) the mini matrix the predict
// benchmark serves from; build time is setup, not measured.
func srBenchMatrix(b *testing.B) *sr.Matrix {
	b.Helper()
	srBenchMu.Lock()
	defer srBenchMu.Unlock()
	if srBenchM != nil {
		return srBenchM
	}
	s := sched.New(sched.Options{Workers: 2})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	m, err := sr.NewBuilder(sweep.NewEngine(s)).Build(context.Background(),
		sr.Set{Base: srBenchSpec(), Groups: 4})
	if err != nil {
		b.Fatal(err)
	}
	srBenchM = m
	return m
}

func BenchmarkSRPredict(b *testing.B) {
	m := srBenchMatrix(b)
	q := sr.Query{NOxScale: 0.9, VOCScale: 1.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSRColdRun is the baseline the SR path replaces: answering the
// same emission scenario with a full simulation.
func BenchmarkSRColdRun(b *testing.B) {
	spec := srBenchSpec()
	spec.NOxScale, spec.VOCScale = 0.9, 1.1
	cfg, err := spec.Config()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
