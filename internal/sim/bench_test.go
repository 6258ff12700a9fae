package sim

import (
	"runtime"
	"testing"
)

// stepAllocs is what TestControlledStepAllocations lets a scheduling step
// allocate, over every step of the default config's seeds 1–50 and
// everything their runs allocate: the workload's operations, the checkers
// and the fingerprint included. A step itself allocates only a delivered
// answer's payload, which is its client's as a TCP response frame is: the
// coordinator refills one View, the walk lists every object's blocks into one
// buffer, a trigger encodes its RMW and lists its blocks over the buffers of
// one delivered before, a round's calls are its task's and its pending RMWs
// entries of the cluster's list, and the adversary's random move and its
// fault rolls list their candidates in slices it keeps. A read's decoder list
// is memory its handle lends, and the checkers list a history's writes once.
// stepAllocsParent is what this build's parent measured; it reads 5.09 here.
const (
	stepAllocs       = 6
	stepAllocsParent = 3.99
)

// runSeeds runs the default config at seeds 1–50 in turn, runs times, and
// returns the scheduling steps taken and the heap allocations made.
func runSeeds(tb testing.TB, runs int) (steps int, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res, err := Run(Config{Seed: int64(i%50) + 1})
		if err != nil {
			tb.Fatal(err)
		}
		steps += res.Steps
	}
	runtime.ReadMemStats(&after)
	return steps, after.Mallocs - before.Mallocs
}

// TestControlledStepAllocations pins BenchmarkSimRun's allocations per step.
func TestControlledStepAllocations(t *testing.T) {
	runSeeds(t, 1) // warm the package-level tables
	steps, mallocs := runSeeds(t, 50)
	if got := float64(mallocs) / float64(steps); got > stepAllocs {
		t.Errorf("a scheduling step allocates %.2f times, want at most %d (its parent measured %.2f)", got, stepAllocs, stepAllocsParent)
	}
}

// BenchmarkSimRun is the simulator's ladder row: one run of the default
// config per iteration, seeds 1–50 in turn, reporting what a scheduling step
// costs — ns-per-step and allocs-per-step, over every step of every run — beside
// the per-run figures.
func BenchmarkSimRun(b *testing.B) {
	b.ReportAllocs()
	steps, mallocs := runSeeds(b, b.N)
	if steps == 0 {
		return
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(mallocs)/float64(steps), "allocs/step")
}
