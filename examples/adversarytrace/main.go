// adversarytrace replays the Figure 3 scenario of the paper: concurrent
// writers scheduled by the lower-bound adversary Ad (ℓ = D/2). It narrates
// every scheduling decision — which RMWs Ad lets take effect, which clients
// it lets run, and where it finally pins the run — and reports the storage it
// extracted compared with the Ω(min(f, c)·D) target.
package main

import (
	"fmt"
	"log"

	"spacebounds/internal/dsys"
	"spacebounds/internal/experiments"
)

func main() {
	const writers = 4
	events, res, err := experiments.TraceAdversary(writers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adversary Ad vs %s with %d concurrent writers (ℓ = D/2 = %d bits)\n\n",
		res.Algorithm, writers, res.EllBits)
	for _, ev := range events {
		switch ev.Kind {
		case dsys.EventRun:
			fmt.Printf("step %3d: rule 2 — let client %d take local steps (trigger RMWs)\n", ev.Step, ev.Client)
		case dsys.EventApply:
			fmt.Printf("step %3d: rule 1 — RMW of %v takes effect on base object %d\n", ev.Step, ev.Op, ev.Object)
		case dsys.EventStall:
			fmt.Printf("step %3d: Ad refuses to schedule anything — the run is pinned\n", ev.Step)
		case dsys.EventCrash:
			fmt.Printf("step %3d: base object %d crashes\n", ev.Step, ev.Object)
		}
	}
	fmt.Printf("\npinned after %d steps (%v)\n", res.Steps, res.Reason)
	fmt.Printf("base-object storage at the pinned point: %d bits\n", res.PinnedBaseObjectBits)
	fmt.Printf("Theorem 1 target min(f+1, c)·D/2:        %d bits\n", res.LowerBoundBits)
	fmt.Printf("objects holding ≥ ℓ bits (frozen, F):     %d\n", res.FullObjects)
	fmt.Printf("writes with > D-ℓ bits in storage (C+):   %d\n", res.HeavyWrites)
	if res.PinnedBaseObjectBits >= res.LowerBoundBits {
		fmt.Println("\nthe adversary extracted at least the lower-bound storage, as Theorem 1 predicts")
	}
}
