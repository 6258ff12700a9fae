package spacebounds_test

import (
	"testing"
	"time"

	"spacebounds"
)

// TestAutoReshardSplitsHotShard runs the self-driving topology controller
// against a live store: hammering one shard past the hot threshold must make
// the controller split it — without any operator call — while the store keeps
// serving and the other shard is left alone.
func TestAutoReshardSplitsHotShard(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		ValueSize: 32,
		Shards:    []spacebounds.ShardSpec{{Name: "hot"}, {Name: "idle"}},
		AutoReshard: spacebounds.AutoReshardOptions{
			Interval:      2 * time.Millisecond,
			HotOps:        5, // ops per 2ms interval; the loop below exceeds this easily
			SustainTicks:  2,
			CooldownTicks: 2,
			MaxMoves:      1,
			// ColdOps is unset, so an idle shard counts as cold: without the
			// floor a stalled writer lets the planner merge hot+idle first.
			MinShards: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if store.Metrics() == nil {
		t.Fatal("enabling AutoReshard without Options.Metrics must create a private registry")
	}

	deadline := time.Now().Add(10 * time.Second)
	for store.AutoReshardStats().Applied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never split the hot shard; stats = %+v", store.AutoReshardStats())
		}
		if err := store.WriteKey(1, "hot", []byte("load")); err != nil {
			t.Fatal(err)
		}
	}

	st := store.AutoReshardStats()
	if st.Splits != 1 || st.Plans != 1 || st.Merges != 0 {
		t.Fatalf("stats = %+v, want exactly one split plan and no merge", st)
	}
	shards := store.Shards()
	if len(shards) != 3 {
		t.Fatalf("topology = %v, want the hot shard split into two successors plus idle", shards)
	}
	for _, name := range shards {
		if name == "hot" {
			t.Fatalf("topology %v still contains the split shard", shards)
		}
	}

	// The store must keep serving both keyspaces across the move.
	if err := store.WriteKey(2, "hot", []byte("after")); err != nil {
		t.Fatalf("write to the split keyspace: %v", err)
	}
	if _, err := store.ReadKey(3, "idle"); err != nil {
		t.Fatalf("read from the untouched shard: %v", err)
	}
}

// TestAutoReshardMergesColdShards: a store whose shards all go quiet
// converges downward — the controller merges cold shards until the MinShards
// floor stops it.
func TestAutoReshardMergesColdShards(t *testing.T) {
	store, err := spacebounds.Open(spacebounds.Options{
		ValueSize: 32,
		Shards:    []spacebounds.ShardSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		AutoReshard: spacebounds.AutoReshardOptions{
			Interval:      2 * time.Millisecond,
			HotOps:        1000,
			ColdOps:       1,
			SustainTicks:  2,
			CooldownTicks: 2,
			MinShards:     2,
			MaxMoves:      3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Seed each shard once, then leave the store idle: every shard shows
	// zero ops per tick, and the controller merges down to the floor.
	for i, key := range []string{"a", "b", "c"} {
		if err := store.WriteKey(i+1, key, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(store.Shards()) > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never merged; topology = %v, stats = %+v", store.Shards(), store.AutoReshardStats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// At the floor the controller must hold: give it a few more cycles and
	// confirm no further merge fires.
	time.Sleep(50 * time.Millisecond)
	if got := len(store.Shards()); got != 2 {
		t.Fatalf("topology shrank past the MinShards floor: %v", store.Shards())
	}
	if st := store.AutoReshardStats(); st.Merges != 1 {
		t.Fatalf("stats = %+v, want exactly one merge", st)
	}

	// All three original keyspaces still serve.
	for i, key := range []string{"a", "b", "c"} {
		if _, err := store.ReadKey(10+i, key); err != nil {
			t.Fatalf("read %q after merge: %v", key, err)
		}
	}
}

// TestAutoReshardRejectsBadConfig: an enabled controller with no usable
// signal (or an inverted hysteresis band) fails Open loudly instead of
// spinning a loop that can never plan.
func TestAutoReshardRejectsBadConfig(t *testing.T) {
	_, err := spacebounds.Open(spacebounds.Options{
		AutoReshard: spacebounds.AutoReshardOptions{Interval: time.Millisecond},
	})
	if err == nil {
		t.Fatal("Open accepted an autoreshard config with no thresholds")
	}
	_, err = spacebounds.Open(spacebounds.Options{
		AutoReshard: spacebounds.AutoReshardOptions{
			Interval: time.Millisecond, HotOps: 10, ColdOps: 20,
		},
	})
	if err == nil {
		t.Fatal("Open accepted ColdOps above HotOps; the hysteresis band would be inverted")
	}
}
