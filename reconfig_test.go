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
			st := store.Storage()
			sum := 0
			for _, part := range st.Shards {
				sum += part.Bits
			}
			if sum != st.Bits {
				sampler <- fmt.Errorf("per-shard bits sum to %d, total says %d", sum, st.Bits)
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
	storage := store.Storage()
	sum := 0
	for _, part := range storage.Shards {
		sum += part.Bits
	}
	if sum != storage.Bits {
		t.Fatalf("post-reconfig per-shard bits sum to %d, total %d", sum, storage.Bits)
	}
	if _, ok := storage.Shards["s0/0"]; !ok {
		t.Fatalf("successor missing from the storage sample: %v", storage.Shards)
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

// TestStoreResizeWithMerge resizes a store by a merge through the facade and
// checks that malformed merges are refused by the move's shape check before
// anything runs.
func TestStoreResizeWithMerge(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		Shards: []spacebounds.ShardSpec{{Name: "a"}, {Name: "b"}},
		F:      1, K: 2, ValueSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.MergeShards("a", ""); err == nil {
		t.Fatal("merge without a second shard accepted")
	}
	if _, err := store.MergeShards("a", "a"); err == nil {
		t.Fatal("self-merge accepted")
	}
	if st := store.ReconfigStats(); st.Merges != 0 || st.Aborts != 0 {
		t.Fatalf("refused merges reached the coordinator: %+v", st)
	}
	if _, err := store.MergeShards("a", "b"); err != nil {
		t.Fatal(err)
	}
	if st := store.ReconfigStats(); st.Merges != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
