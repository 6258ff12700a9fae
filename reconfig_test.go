package spacebounds_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacebounds"
)

// TestStoreSplitShardLive splits a shard of a batched store while clients
// hammer it: zero failed operations, successors live, stats recorded, storage
// breakdown summation-consistent mid-flight.
func TestStoreSplitShardLive(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		Shards: []spacebounds.ShardSpec{
			{Name: "s0"}, {Name: "s1"}, {Name: "s2"}, {Name: "s3"},
		},
		F: 1, K: 2, ValueSize: 256,
		Batch: spacebounds.BatchOptions{MaxSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const clients = 8
	const opsPerClient = 120
	var failed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A storage sampler races the migration to pin summation consistency
	// while two epochs coexist.
	sampler := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				sampler <- nil
				return
			case <-time.After(200 * time.Microsecond):
			}
			total, perShard := store.StorageBreakdown()
			sum := 0
			for _, bits := range perShard {
				sum += bits
			}
			if sum != total {
				sampler <- fmt.Errorf("per-shard bits sum to %d, total says %d", sum, total)
				return
			}
		}
	}()
	for c := 1; c <= clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 64)
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("key-%d", (c+i)%16)
				payload[0] = byte(i)
				if err := store.WriteKey(c, key, payload); err != nil {
					failed.Add(1)
					return
				}
				if _, err := store.ReadKey(c, key); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}

	succs, err := store.SplitShard("s0")
	if err != nil {
		t.Fatalf("split under load: %v", err)
	}
	if len(succs) != 2 {
		t.Fatalf("successors = %v", succs)
	}
	if _, err := store.DrainShard("s1"); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	wg.Wait()
	close(stop)
	if err := <-sampler; err != nil {
		t.Fatal(err)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d operations failed during live reconfiguration", n)
	}

	st := store.ReconfigStats()
	if st.Splits != 1 || st.Drains != 1 || st.SeedWrites != 3 || st.Epoch == 0 {
		t.Fatalf("reconfig stats = %+v", st)
	}
	// Shard list reflects the new topology; storage still sums.
	total, perShard := store.StorageBreakdown()
	sum := 0
	for _, bits := range perShard {
		sum += bits
	}
	if sum != total {
		t.Fatalf("post-reconfig per-shard bits sum to %d, total %d", sum, total)
	}
	if _, ok := perShard["s0/0"]; !ok {
		t.Fatalf("successor missing from breakdown: %v", perShard)
	}
}

// TestStoreResizePlanAndDedicated exercises Resize with add/remove moves and
// the plan validation.
func TestStoreResizePlanAndDedicated(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		Shards:    []spacebounds.ShardSpec{{Name: "a"}, {Name: "b"}},
		ValueSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if err := store.WriteKey(1, "hot", []byte("before-fork")); err != nil {
		t.Fatal(err)
	}
	if err := store.Resize([]spacebounds.ResizeOp{
		{Add: "hot"},
		{Split: "a"},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadKey(2, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) != "before-fork" {
		t.Fatalf("forked key read %q", got[:11])
	}
	if err := store.RemoveShard("hot"); err != nil {
		t.Fatal(err)
	}
	st := store.ReconfigStats()
	if st.Adds != 1 || st.Removes != 1 || st.Splits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Exactly-one-field validation.
	if err := store.Resize([]spacebounds.ResizeOp{{Split: "b", Drain: "b"}}); err == nil {
		t.Fatal("ambiguous resize op accepted")
	}
	if err := store.Resize([]spacebounds.ResizeOp{{}}); err == nil {
		t.Fatal("empty resize op accepted")
	}
}

// TestReconfigUnderFaultInjection runs a split while the store's fault
// injector crashes and restarts nodes: the migration must complete and the
// store stay available.
func TestReconfigUnderFaultInjection(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		Shards:    []spacebounds.ShardSpec{{Name: "s0"}, {Name: "s1"}},
		F:         1,
		K:         2,
		ValueSize: 128,
		Faults:    spacebounds.FaultOptions{Interval: 500 * time.Microsecond, Downtime: 2 * time.Millisecond, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 1; c <= 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 32)
			for i := 0; i < 80; i++ {
				payload[0] = byte(i)
				if err := store.WriteKey(c, fmt.Sprintf("key-%d", i%8), payload); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	if _, err := store.SplitShard("s0"); err != nil {
		t.Fatalf("split under fault injection: %v", err)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d writes failed (fault injector must stay within per-shard budget F)", n)
	}
	if _, err := store.ReadKey(99, "s0"); err != nil {
		t.Fatalf("read after faulted split: %v", err)
	}
}

// TestStoreMergeShardsLive merges two shards of a live store while clients
// hammer keys of both: zero failed operations, the merged shard serves both
// namespaces, and the inverse move round-trips (split the merged shard
// again).
func TestStoreMergeShardsLive(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		Shards: []spacebounds.ShardSpec{
			{Name: "s0"}, {Name: "s1"}, {Name: "s2"},
		},
		F: 1, K: 2, ValueSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const clients = 6
	const opsPerClient = 150
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 1; c <= clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 32)
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("key-%d", (c+i)%16)
				payload[0] = byte(i)
				if err := store.WriteKey(c, key, payload); err != nil {
					failed.Add(1)
					return
				}
				if _, err := store.ReadKey(c, key); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}
	merged, err := store.MergeShards("s0", "s1")
	if err != nil {
		t.Fatalf("merge under load: %v", err)
	}
	if merged != "s0+s1" {
		t.Fatalf("merged shard = %q", merged)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d operations failed during the live merge", n)
	}

	// Both old namespaces answer through the merged shard.
	if err := store.WriteKey(1, "s0", []byte("after-merge")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"s0", "s1"} {
		got, err := store.ReadKey(2, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:len("after-merge")]) != "after-merge" {
			t.Fatalf("read of %q after merge = %q", key, got[:16])
		}
	}
	// The inverse move still works: split the merged shard again.
	if _, err := store.SplitShard(merged); err != nil {
		t.Fatalf("re-split of merged shard: %v", err)
	}
	st := store.ReconfigStats()
	if st.Merges != 1 || st.Splits != 1 || st.Aborts != 0 {
		t.Fatalf("reconfig stats = %+v", st)
	}

	// A quiet store has nothing to resume; the recovery entry points are
	// no-ops that report so.
	resumed, err := store.ResumeMoves()
	if err != nil || resumed != 0 {
		t.Fatalf("ResumeMoves on settled store = %d, %v", resumed, err)
	}
}

// TestStoreResizeWithMerge drives a merge through the Resize plan API and
// validates the op-shape checks.
func TestStoreResizeWithMerge(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		Shards: []spacebounds.ShardSpec{{Name: "a"}, {Name: "b"}},
		F:      1, K: 2, ValueSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Resize([]spacebounds.ResizeOp{{Merge: "a"}}); err == nil {
		t.Fatal("merge without MergeWith accepted")
	}
	if err := store.Resize([]spacebounds.ResizeOp{{MergeWith: "b"}}); err == nil {
		t.Fatal("MergeWith without Merge accepted")
	}
	if err := store.Resize([]spacebounds.ResizeOp{{Split: "a", MergeWith: "b"}}); err == nil {
		t.Fatal("ambiguous op accepted")
	}
	if err := store.Resize([]spacebounds.ResizeOp{{Merge: "a", MergeWith: "b"}}); err != nil {
		t.Fatal(err)
	}
	if st := store.ReconfigStats(); st.Merges != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
