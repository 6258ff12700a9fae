package workload_test

import (
	"fmt"
	"sort"
	"testing"

	"spacebounds/internal/reconfig"
	"spacebounds/internal/register"
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/safereg"
	"spacebounds/internal/shard"
	"spacebounds/internal/workload"
)

// newBatchedSet builds a shard set with per-shard group commit.
func newBatchedSet(t *testing.T, shards int) *shard.Set {
	t.Helper()
	set := newSet(t, shards)
	set.EnableBatching(shard.BatchConfig{MaxSize: 8})
	return set
}

func newSet(t *testing.T, shards int) *shard.Set {
	t.Helper()
	specs := make([]shard.Spec, 0, shards)
	for i := 0; i < shards; i++ {
		specs = append(specs, shard.Spec{
			Name:      fmt.Sprintf("s%d", i),
			Algorithm: "adaptive",
			Config:    register.Config{F: 1, K: 2, DataLen: 64},
		})
	}
	set, err := shard.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	return set
}

// storageSums checks the set's storage sample after a run: the total is the
// sum of the shards' bits, and every live shard is attributed.
func storageSums(t *testing.T, set *shard.Set) shard.Storage {
	t.Helper()
	st := set.Storage()
	sum := 0
	for _, part := range st.Shards {
		sum += part.Bits
	}
	if sum != st.Bits {
		t.Fatalf("per-shard bits sum to %d, sample says %d", sum, st.Bits)
	}
	for _, sh := range set.Shards() {
		if st.Shards[sh.Name].Bits <= 0 {
			t.Fatalf("shard %s reports %d bits (%v)", sh.Name, st.Shards[sh.Name].Bits, st.Shards)
		}
	}
	return st
}

func TestShardedSpecValidate(t *testing.T) {
	if _, err := (workload.ShardedSpec{Clients: -1}).Validate(); err == nil {
		t.Fatal("negative client count accepted")
	}
	if _, err := (workload.ShardedSpec{ReadFraction: 1.5}).Validate(); err == nil {
		t.Fatal("read fraction > 1 accepted")
	}
	s, err := (workload.ShardedSpec{Clients: 1}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.Keys == 0 {
		t.Fatal("Keys default not applied")
	}
}

// TestRunShardedRegularity drives concurrent clients over several shards and
// checks every per-shard history against strong regularity.
func TestRunShardedRegularity(t *testing.T) {
	set := newSet(t, 4)
	res, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients:       6,
		OpsPerClient:  20,
		ReadFraction:  0.4,
		Keys:          12,
		Seed:          7,
		RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors: %d write, %d read", res.WriteErrors, res.ReadErrors)
	}
	if got := res.CompletedWrites + res.CompletedReads; got != 6*20 {
		t.Fatalf("completed %d ops, want %d", got, 6*20)
	}
	if err := res.CheckRegularity(); err != nil {
		t.Fatalf("per-shard regularity violated: %v", err)
	}
}

// TestRunShardedBatchedRegularity is the batched-engine acceptance check:
// group commit plus node-level coalescing must still produce strongly
// regular per-shard histories, both under a closed loop and under open-loop
// arrivals that pile up concurrent operations per shard.
func TestRunShardedBatchedRegularity(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec workload.ShardedSpec
	}{
		{"closed-loop", workload.ShardedSpec{
			Clients: 6, OpsPerClient: 20, ReadFraction: 0.4, Keys: 12, Seed: 7, RecordHistory: true,
		}},
		{"open-loop", workload.ShardedSpec{
			Clients: 4, OpsPerClient: 25, ReadFraction: 0.4, Keys: 12, Seed: 11,
			RecordHistory: true, ArrivalRate: 4000,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := newBatchedSet(t, 4)
			res, err := workload.RunSharded(set, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.WriteErrors != 0 || res.ReadErrors != 0 {
				t.Fatalf("errors: %d write, %d read", res.WriteErrors, res.ReadErrors)
			}
			want := tc.spec.Clients * tc.spec.OpsPerClient
			if got := res.CompletedWrites + res.CompletedReads; got != want {
				t.Fatalf("completed %d ops, want %d", got, want)
			}
			if err := res.CheckRegularity(); err != nil {
				t.Fatalf("per-shard regularity violated under batching: %v", err)
			}
			stats := set.BatchStats()
			if stats.Writes+stats.Reads != want {
				t.Fatalf("batcher carried %d ops, want %d", stats.Writes+stats.Reads, want)
			}
			if stats.WriteRounds >= stats.Writes {
				t.Logf("note: no write coalescing this run (%d rounds for %d writes)", stats.WriteRounds, stats.Writes)
			}
		})
	}
}

// TestRunShardedOpenLoopUniqueValues checks the open-loop dispatcher hands
// every in-flight operation its own virtual client so written values stay
// globally distinct (a collision would show up as a regularity violation or
// a duplicated value in the history).
func TestRunShardedOpenLoopUniqueValues(t *testing.T) {
	set := newSet(t, 2)
	res, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients: 3, OpsPerClient: 30, Keys: 8, Seed: 5, RecordHistory: true, ArrivalRate: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]string)
	for name, h := range res.Histories {
		for _, op := range h.Writes() {
			fp := op.Value.Fingerprint()
			if prev, dup := seen[fp]; dup {
				t.Fatalf("written value duplicated across %s and %s", prev, name)
			}
			seen[fp] = name
		}
	}
	if err := res.CheckRegularity(); err != nil {
		t.Fatal(err)
	}
}

// TestRunShardedStorageSum checks the aggregate storage cost equals the sum
// of the per-shard costs after a multi-shard run.
func TestRunShardedStorageSum(t *testing.T) {
	set := newSet(t, 3)
	res, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients: 4, OpsPerClient: 10, Keys: 9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWrites == 0 {
		t.Fatal("no write completed")
	}
	if st := storageSums(t, set); len(st.Shards) != 3 {
		t.Fatalf("sample covers %v, want three shards", st.Shards)
	}
}

// TestRunShardedZipfSkew checks that a skewed workload concentrates ops on
// the shard owning the hottest keys while a uniform one spreads them.
func TestRunShardedZipfSkew(t *testing.T) {
	set := newSet(t, 4)
	skewed, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients: 4, OpsPerClient: 50, Keys: 32, ZipfS: 2.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := set.ForKey(workload.KeyName(0)).Name
	total, hottest := 0, skewed.PerShardOps[hot]
	for _, n := range skewed.PerShardOps {
		total += n
	}
	if total != 4*50 {
		t.Fatalf("ops across shards sum to %d, want %d", total, 4*50)
	}
	// Under s=2.5 Zipf, key-0's shard must dominate: more than half of all ops.
	if hottest*2 <= total {
		t.Fatalf("skewed run not skewed: hottest shard %q got %d of %d ops (%v)", hot, hottest, total, skewed.PerShardOps)
	}

	uniform, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients: 4, OpsPerClient: 50, Keys: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range uniform.PerShardOps {
		if n == 0 {
			t.Fatalf("uniform run left shard %s idle: %v", name, uniform.PerShardOps)
		}
	}
}

// TestRunShardedWithReconfigSchedule runs an open-loop workload with a split
// and a drain scheduled mid-run: zero failed operations, both moves applied,
// and the stitched per-lineage histories strongly regular end to end.
func TestRunShardedWithReconfigSchedule(t *testing.T) {
	set := newSet(t, 2)
	res, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients:       4,
		OpsPerClient:  60,
		ReadFraction:  0.3,
		Keys:          8,
		Seed:          7,
		RecordHistory: true,
		Reconfig: []workload.ReconfigMove{
			{AfterOps: 40, Move: reconfig.Move{Kind: reconfig.MoveSplit, Shard: "s0"}},
			{AfterOps: 120, Move: reconfig.Move{Kind: reconfig.MoveDrain, Shard: "s1"}},
		},
		Coordinator: reconfig.NewCoordinator(set),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteErrors+res.ReadErrors != 0 {
		t.Fatalf("%d writes / %d reads failed during live reconfiguration", res.WriteErrors, res.ReadErrors)
	}
	if len(res.Reconfigs) != 2 {
		t.Fatalf("applied %d moves, want 2", len(res.Reconfigs))
	}
	for _, ar := range res.Reconfigs {
		if ar.Err != "" {
			t.Fatalf("move %+v failed: %s", ar.Move, ar.Err)
		}
	}
	if res.ReconfigStats.Splits != 1 || res.ReconfigStats.Drains != 1 {
		t.Fatalf("reconfig stats = %+v", res.ReconfigStats)
	}
	// The split's successors appear in the final shard attribution, and the
	// storage still sums after the topology change.
	if _, ok := storageSums(t, set).Shards["s0/0"]; !ok {
		t.Fatal("successor missing from the storage sample")
	}
	// Stitched histories — ancestors merged into successors — must be
	// strongly regular across the epoch boundary.
	if err := res.CheckRegularity(); err != nil {
		t.Fatalf("stitched regularity: %v", err)
	}
	for name, h := range res.Histories {
		if lineage := set.Lineage(name); len(lineage) > 1 && len(h.Ops) == 0 {
			t.Fatalf("stitched history of %s is empty", name)
		}
	}
}

// TestRunShardedReconfigValidation rejects malformed reconfig moves before
// the run starts, through reconfig.Move.Validate.
func TestRunShardedReconfigValidation(t *testing.T) {
	set := newSet(t, 1)
	for _, mv := range []reconfig.Move{
		{Kind: reconfig.MoveSplit, Shard: "s0", Shard2: "s0"},
		{Kind: reconfig.MoveMerge, Shard: "s0"},
		{Kind: reconfig.MoveKind(3), Shard: "s0"},
	} {
		_, err := workload.RunSharded(set, workload.ShardedSpec{
			Clients: 1, OpsPerClient: 1,
			Reconfig:    []workload.ReconfigMove{{Move: mv}},
			Coordinator: reconfig.NewCoordinator(set),
		})
		if err == nil {
			t.Fatalf("malformed reconfig move %+v accepted", mv)
		}
	}
}

// TestReconfigAbortDoesNotStopLaterMoves schedules a move that aborts between
// two good ones: the abort reports its error, and the moves around it land.
func TestReconfigAbortDoesNotStopLaterMoves(t *testing.T) {
	set := newSet(t, 2)
	res, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients:      4,
		OpsPerClient: 60,
		ReadFraction: 0.3,
		Keys:         8,
		Seed:         11,
		Reconfig: []workload.ReconfigMove{
			{AfterOps: 30, Move: reconfig.Move{Kind: reconfig.MoveSplit, Shard: "s0"}},
			{AfterOps: 60, Move: reconfig.Move{Kind: reconfig.MoveDrain, Shard: "no-such-shard"}}, // injected abort
			{AfterOps: 90, Move: reconfig.Move{Kind: reconfig.MoveDrain, Shard: "s1"}},
		},
		Coordinator: reconfig.NewCoordinator(set),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reconfigs) != 3 {
		t.Fatalf("applied %d moves, want 3", len(res.Reconfigs))
	}
	good, bad, tail := res.Reconfigs[0], res.Reconfigs[1], res.Reconfigs[2]
	if good.Err != "" || tail.Err != "" {
		t.Fatalf("control moves failed: %q / %q", good.Err, tail.Err)
	}
	if bad.Err == "" {
		t.Fatal("move on an unknown shard did not fail")
	}
	if len(good.Successors) != 2 || len(tail.Successors) != 1 {
		t.Fatalf("successors = %v / %v, want a split's two and a drain's one", good.Successors, tail.Successors)
	}
	for _, name := range append(good.Successors, tail.Successors...) {
		if got := set.Router().RouteOf(name).State(); got != shard.RouteActive {
			t.Fatalf("successor %s is %v, want active", name, got)
		}
	}
	if res.ReconfigStats.Splits != 1 || res.ReconfigStats.Drains != 1 || res.ReconfigStats.Aborts != 1 {
		t.Fatalf("reconfig stats = %+v", res.ReconfigStats)
	}
}

// TestRunShardedWithMergeSchedule merges two shards under live load: zero
// failed operations, the merged shard serves both sources' keys, and the
// stitched winner-lineage history is strongly regular.
func TestRunShardedWithMergeSchedule(t *testing.T) {
	set := newSet(t, 2)
	res, err := workload.RunSharded(set, workload.ShardedSpec{
		Clients:       4,
		OpsPerClient:  60,
		ReadFraction:  0.3,
		Keys:          8,
		Seed:          13,
		RecordHistory: true,
		Reconfig: []workload.ReconfigMove{
			{AfterOps: 80, Move: reconfig.Move{Kind: reconfig.MoveMerge, Shard: "s0", Shard2: "s1"}},
		},
		Coordinator: reconfig.NewCoordinator(set),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteErrors+res.ReadErrors != 0 {
		t.Fatalf("%d writes / %d reads failed during the live merge", res.WriteErrors, res.ReadErrors)
	}
	if len(res.Reconfigs) != 1 || res.Reconfigs[0].Err != "" {
		t.Fatalf("merge did not apply cleanly: %+v", res.Reconfigs)
	}
	if res.ReconfigStats.Merges != 1 {
		t.Fatalf("reconfig stats = %+v", res.ReconfigStats)
	}
	if _, ok := storageSums(t, set).Shards["s0+s1"]; !ok {
		t.Fatal("merged shard missing from the storage sample")
	}
	// The merge loser's branch ends at the merge. Its pre-merge writes and
	// the fallback reads it answered are checked beside the merged lineage,
	// as the simulator checks them.
	pruned := set.Router().PrunedBranches()
	if len(pruned) != 1 {
		t.Fatalf("pruned branches %v, want the one merge loser", pruned)
	}
	if len(res.Histories) != 2 || res.Histories["s0+s1"] == nil || res.Histories[pruned[0]] == nil {
		t.Fatalf("histories for %v, want s0+s1 and the pruned %s", historyNames(res), pruned[0])
	}
	if len(res.Histories[pruned[0]].Writes()) == 0 {
		t.Fatalf("pruned branch %s recorded no writes", pruned[0])
	}
	if err := res.CheckRegularity(); err != nil {
		t.Fatalf("stitched regularity across the merge: %v", err)
	}
}

// historyNames lists a result's history names, sorted.
func historyNames(res *workload.ShardedResult) []string {
	names := make([]string, 0, len(res.Histories))
	for name := range res.Histories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
