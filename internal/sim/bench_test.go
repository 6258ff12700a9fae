package sim

import (
	"runtime"
	"testing"
)

// BenchmarkSimRun is the simulator's ladder row: one run of the default
// config per iteration, seeds 1–50 in turn, reporting what a scheduling step
// costs — ns-per-step and allocs-per-step, over every step of every run — beside
// the per-run figures.
func BenchmarkSimRun(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Seed: int64(i%50) + 1})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	runtime.ReadMemStats(&after)
	if steps == 0 {
		return
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(steps), "allocs/step")
}
