package spacebounds

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchedStoreUnderCrashRestartChurn drives concurrent clients through
// the batched quorum engine while the fault injector crashes and restarts
// storage nodes underneath them, and pins two invariants:
//
//   - the Batcher never commits a partial lane: every operation submitted to
//     a batcher receives exactly one response, and the batcher's member
//     counters account for every submission — an operation is never silently
//     dropped from, or double-counted in, a shared round that raced a crash;
//   - Storage stays summation-consistent: the aggregate equals the sum of
//     the per-shard attribution in every sample taken while batches and
//     faults are in flight.
//
// Run with -race this is also the concurrency check on the injector's
// interaction with the batched live engine.
func TestBatchedStoreUnderCrashRestartChurn(t *testing.T) {
	const (
		clients   = 8
		opsPer    = 40 // at least; a client keeps going until the churn has shown
		readEvery = 4  // every 4th op reads
	)
	store, err := Open(Options{
		Shards: []ShardSpec{
			{Name: "alpha"}, {Name: "beta"},
		},
		F:         1,
		K:         2,
		ValueSize: 64,
		Batch:     BatchOptions{MaxSize: 4},
		Faults:    FaultOptions{Interval: time.Millisecond, Downtime: 3 * time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Sampler: Storage must be summation-consistent in every sample taken
	// while batches commit and nodes crash mid-flight.
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	var samples atomic.Int64
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if err := bitsSum(store.Storage()); err != nil {
				t.Errorf("Storage inconsistent: %v", err)
				return
			}
			samples.Add(1)
		}
	}()

	// The load lasts until nodes have gone down and come back under it (or the
	// injector has had ten seconds to do so and the assertions below fail).
	deadline := time.Now().Add(10 * time.Second)
	churned := func() bool {
		fs := store.FaultStats()
		return fs.Crashes >= 2 && fs.Restarts >= 2 || time.Now().After(deadline)
	}
	var wg sync.WaitGroup
	var issued, writes, reads, writeErrs, readErrs atomic.Int64
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer || !churned(); i++ {
				issued.Add(1)
				key := fmt.Sprintf("key-%d", (c+i)%8)
				if i%readEvery == 0 {
					if _, err := store.ReadKey(1+c, key); err != nil {
						// Reads may legitimately starve: the adaptive register
						// is FW-terminating, so reads are only guaranteed to
						// complete once writes stop.
						readErrs.Add(1)
					} else {
						reads.Add(1)
					}
				} else {
					val := []byte(fmt.Sprintf("c%d-i%d", c, i))
					if err := store.WriteKey(1+c, key, val); err != nil {
						writeErrs.Add(1)
					} else {
						writes.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stopSampling)
	samplerWG.Wait()

	// Every submission must be accounted for: completions plus errors equal
	// the ops issued (no hung or vanished operations), and the batcher's
	// member counters cover every operation that went through a lane.
	if got := writes.Load() + reads.Load() + writeErrs.Load() + readErrs.Load(); got != issued.Load() {
		t.Fatalf("operations unaccounted for: %d of %d", got, issued.Load())
	}
	st := store.BatchStats()
	if int64(st.Writes+st.Reads) != issued.Load() {
		t.Fatalf("batcher lanes carried %d ops, %d were submitted: a lane committed partially",
			st.Writes+st.Reads, issued.Load())
	}
	if st.WriteRounds > st.Writes || st.ReadRounds > st.Reads {
		t.Fatalf("more rounds than members (writes %d/%d, reads %d/%d)",
			st.WriteRounds, st.Writes, st.ReadRounds, st.Reads)
	}
	if st.WriteRounds == 0 || st.ReadRounds == 0 {
		t.Fatal("batcher dispatched no rounds; the test exercised nothing")
	}
	// Individual rounds may legitimately fail under churn (a round that
	// dispatched while node X was down fails fast when node Y crashes before
	// the round's quorum completes — two faults seen across one restart
	// boundary, even though at most F nodes are down at any instant), so no
	// error-rate bound is asserted; what must hold is that traffic flows in
	// both directions throughout the churn.
	if writes.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("no successful traffic (writes %d, reads %d)", writes.Load(), reads.Load())
	}
	fs := store.FaultStats()
	if fs.Crashes == 0 {
		t.Fatal("fault injector never crashed a node; churn was not exercised")
	}
	if fs.Restarts == 0 {
		t.Fatal("fault injector never restarted a node")
	}
	if samples.Load() == 0 {
		t.Fatal("storage sampler never ran")
	}
}

// TestCloseIsIdempotentWithFaultInjection guards the explicit-plus-deferred
// Close pattern used throughout the examples.
func TestCloseIsIdempotentWithFaultInjection(t *testing.T) {
	store, err := Open(Options{Faults: FaultOptions{Interval: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	store.Close() // must not panic on the injector's stop channel
}

// TestFaultInjectorRespectsBudgetAndStops checks that the injector never
// takes more than F nodes of a shard down at once and stops cleanly with the
// store.
func TestFaultInjectorRespectsBudgetAndStops(t *testing.T) {
	store, err := Open(Options{
		Shards:    []ShardSpec{{Name: "only"}},
		F:         1,
		K:         2,
		ValueSize: 16,
		Faults:    FaultOptions{Interval: 200 * time.Microsecond, Downtime: time.Millisecond, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Millisecond)
	okReads, failedReads := 0, 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			// With n = 2F+K = 4 and at most F = 1 down at any instant, read
			// quorums are almost always reachable. A rare individual failure
			// is allowed: a round dispatched while node X was down also loses
			// node Y if Y crashes right after X restarts (two faults observed
			// across one restart boundary), which fail-fast clients surface
			// as an error.
			if _, err := store.ReadKey(1, "only"); err != nil {
				failedReads++
			} else {
				okReads++
			}
			time.Sleep(100 * time.Microsecond) // leave the injector CPU time
		}
	}
	if okReads == 0 {
		t.Fatalf("no read ever succeeded under budgeted churn (%d failures)", failedReads)
	}
	if failedReads > okReads {
		t.Fatalf("reads mostly failing under budgeted churn: %d failed, %d ok", failedReads, okReads)
	}
	if fs := store.FaultStats(); fs.Crashes == 0 {
		t.Fatal("injector never fired")
	}
	store.Close()
	// After Close the injector is halted; stats are stable.
	a := store.FaultStats()
	time.Sleep(2 * time.Millisecond)
	if b := store.FaultStats(); a != b {
		t.Fatalf("injector still running after Close: %+v vs %+v", a, b)
	}
}
