package shard_test

import (
	"fmt"
	"sync"
	"testing"

	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// TestBatcherCoalescesWrites drives many concurrent writes through one
// shard's batcher over the real register: every write is answered, and a
// final read returns one of the written values. How many rounds parked
// writers take is pinned by TestParkedWritersLeadInTurn.
func TestBatcherCoalescesWrites(t *testing.T) {
	const writers = 32
	set, err := shard.New(adaptiveSpecs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	set.EnableBatching(shard.BatchConfig{MaxSize: 16})

	written := make([]value.Value, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		written[i] = value.Sequenced(i+1, 1, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := set.Write(i+1, "k", written[i]); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	stats := set.BatchStats()
	if stats.Writes != writers {
		t.Fatalf("stats.Writes = %d, want %d", stats.Writes, writers)
	}
	if stats.WriteRounds == 0 || stats.WriteRounds > writers {
		t.Fatalf("stats.WriteRounds = %d for %d writes", stats.WriteRounds, writers)
	}

	got, err := set.Read(100, "k")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range written {
		if got.Equal(v) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("final read returned %v, not one of the written values", got)
	}
}

// TestBatcherReadsShareRounds checks that concurrent reads through the
// batcher over the real register all return the seeded value. How many rounds
// parked readers take is pinned by TestParkedReadersShareRounds.
func TestBatcherReadsShareRounds(t *testing.T) {
	const readers = 24
	set, err := shard.New(adaptiveSpecs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	set.EnableBatching(shard.BatchConfig{MaxSize: 8})

	want := value.Sequenced(1, 1, 64)
	if err := set.Write(1, "k", want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := set.Read(i+1, "k")
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if !got.Equal(want) {
				t.Errorf("read %d returned %v, want %v", i, got, want)
			}
		}()
	}
	wg.Wait()

	stats := set.BatchStats()
	if stats.Reads != readers {
		t.Fatalf("stats.Reads = %d, want %d", stats.Reads, readers)
	}
	if stats.ReadRounds == 0 || stats.ReadRounds > readers {
		t.Fatalf("stats.ReadRounds = %d for %d reads", stats.ReadRounds, readers)
	}
}

// TestBatcherPerShardIsolation checks that batching keeps shards independent:
// writes routed to different shards land on their own registers.
func TestBatcherPerShardIsolation(t *testing.T) {
	set, err := shard.New(adaptiveSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	set.EnableBatching(shard.BatchConfig{MaxSize: 4})

	vals := make(map[string]value.Value)
	for i, sh := range set.Shards() {
		v := value.Sequenced(i+1, 7, 64)
		vals[sh.Name] = v
		if err := set.Write(i+1, sh.Name, v); err != nil {
			t.Fatalf("write shard %s: %v", sh.Name, err)
		}
	}
	for i, sh := range set.Shards() {
		got, err := set.Read(10+i, sh.Name)
		if err != nil {
			t.Fatalf("read shard %s: %v", sh.Name, err)
		}
		if !got.Equal(vals[sh.Name]) {
			t.Fatalf("shard %s read %v, want %v", sh.Name, got, vals[sh.Name])
		}
	}
	if b := set.Batcher("s0"); b == nil {
		t.Fatal("Batcher(s0) = nil after EnableBatching")
	}
	if b := set.Batcher(fmt.Sprintf("s%d", 99)); b != nil {
		t.Fatal("Batcher of unknown shard is non-nil")
	}
}
