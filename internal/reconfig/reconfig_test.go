package reconfig

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spacebounds/internal/dsys"

	"spacebounds/internal/register"
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

const dataLen = 32

// storageExact samples a set no operation is running on: the cluster's total
// must be the sum of the shards' bits.
func storageExact(set *shard.Set) (shard.Storage, error) {
	st := set.Storage()
	sum := 0
	for _, part := range st.Shards {
		sum += part.Bits
	}
	if sum != st.Bits {
		return st, fmt.Errorf("per-shard bits sum to %d, the cluster counts %d (%v)", sum, st.Bits, st.Shards)
	}
	return st, nil
}

func newSet(t *testing.T, shards int, opts ...dsys.Option) *shard.Set {
	t.Helper()
	specs := make([]shard.Spec, 0, shards)
	for i := 0; i < shards; i++ {
		specs = append(specs, shard.Spec{
			Name:      fmt.Sprintf("s%d", i),
			Algorithm: "adaptive",
			Config:    register.Config{F: 1, K: 2, DataLen: dataLen},
		})
	}
	set, err := shard.New(specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSplitMigratesLatestValue splits a quiet shard and checks that reads of
// its keys — through either successor — return the pre-split value, that the
// old region is retired, and that storage accounting stays summation-exact.
func TestSplitMigratesLatestValue(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	want := value.Sequenced(7, 3, dataLen)
	if err := set.Write(7, "s0", want); err != nil {
		t.Fatal(err)
	}
	ev, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Successors) != 2 || ev.Successors[0] != "s0/0" || ev.Successors[1] != "s0/1" {
		t.Fatalf("successors = %v", ev.Successors)
	}
	if ev.Epoch == 0 {
		t.Fatal("split installed no epoch")
	}

	// The old region must be retired and report zero storage.
	if got := set.Router().RouteOf("s0").State(); got != shard.RouteRetired {
		t.Fatalf("old route state = %v, want retired", got)
	}
	storage, err := storageExact(set)
	if err != nil {
		t.Fatal(err)
	}
	if part, ok := storage.Shards["s0"]; ok {
		t.Fatalf("retired shard still reports %+v", part)
	}

	// Keys that used to route to s0 (its name most directly) must read the
	// migrated value through the new epoch.
	got, err := set.Read(9, "s0")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("post-split read = %v, want %v", got, want)
	}
	// Both successors were seeded.
	for _, name := range ev.Successors {
		got, err := set.Read(10, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("successor %s read %v, want %v", name, got, want)
		}
	}
	st := co.Stats()
	if st.Splits != 1 || st.SeedWrites != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDrainReplacesRegion drains a shard onto a fresh region: same routing
// position, new base objects, value preserved.
func TestDrainReplacesRegion(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	want := value.Sequenced(3, 1, dataLen)
	if err := set.Write(3, "s1", want); err != nil {
		t.Fatal(err)
	}
	oldBase := set.Shard("s1").Base
	ev, err := co.Apply(runner, Move{Kind: MoveDrain, Shard: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Successors) != 1 {
		t.Fatalf("drain produced %d successors", len(ev.Successors))
	}
	succ := set.Shard(ev.Successors[0])
	if succ.Base == oldBase {
		t.Fatal("drain reused the old region")
	}
	got, err := set.Read(4, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("post-drain read = %v, want %v", got, want)
	}
	if cl := set.Cluster(); cl.N()-cl.LiveObjectCount() != set.Shard("s1").Span {
		t.Fatalf("retired objects = %d, want %d", cl.N()-cl.LiveObjectCount(), set.Shard("s1").Span)
	}
}

// TestSplitUnderConcurrentLoad splits a shard while writers and readers hammer
// its keys: zero failed operations, and afterwards every key reads the latest
// value its writer wrote.
func TestSplitUnderConcurrentLoad(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	const writers = 4
	const opsPerWriter = 200
	var failed atomic.Int64
	var wg sync.WaitGroup
	keys := []string{"s0", "alpha", "beta", "gamma"}
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := keys[w%len(keys)]
			for i := 1; i <= opsPerWriter; i++ {
				if err := set.Write(w+1, key, value.Sequenced(w+1, i, dataLen)); err != nil {
					failed.Add(1)
					return
				}
				if _, err := set.Read(100+w, key); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}
	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0"}); err != nil {
		t.Fatalf("split under load: %v", err)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d operations failed during the live split", n)
	}
	// Each key must now read the final value of some writer that used it
	// (several writers share a key; any of their final values is the latest
	// depending on interleaving — check the read decodes to a legal one).
	for w, key := range keys[:writers] {
		got, err := set.Read(200+w, key)
		if err != nil {
			t.Fatalf("final read %q: %v", key, err)
		}
		legal := false
		for w2 := 0; w2 < writers; w2++ {
			for i := 1; i <= opsPerWriter; i++ {
				if got.Equal(value.Sequenced(w2+1, i, dataLen)) {
					legal = true
				}
			}
		}
		if !legal && !got.Equal(value.Zero(dataLen)) {
			t.Fatalf("final read of %q returned a value never written: %v", key, got)
		}
	}
}

// TestMoveValidation exercises the error paths.
func TestMoveValidation(t *testing.T) {
	set := newSet(t, 1)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "nope"}); err == nil {
		t.Fatal("split of unknown shard accepted")
	}
	// Kinds 3 and 4 were the dedicated-key add and remove; no build drives
	// them any more.
	opened := len(co.Ledger())
	for _, k := range []MoveKind{0, 3, 4, 99} {
		if _, err := co.Apply(runner, Move{Kind: k, Shard: "s0"}); err == nil {
			t.Fatalf("move of kind %v accepted", k)
		}
	}
	if co.InFlight() != nil || len(co.Ledger()) != opened {
		t.Fatalf("rejected shapes opened ledger entries: %+v", co.Ledger())
	}
	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0"}); err == nil {
		t.Fatal("re-split of a retired shard accepted")
	}
	// Splitting a successor (chained reconfiguration) must work.
	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0/1"}); err != nil {
		t.Fatalf("chained split: %v", err)
	}
	lineage := set.Lineage("s0/1/0")
	want := []string{"s0", "s0/1", "s0/1/0"}
	if len(lineage) != len(want) {
		t.Fatalf("lineage = %v, want %v", lineage, want)
	}
	for i := range want {
		if lineage[i] != want[i] {
			t.Fatalf("lineage = %v, want %v", lineage, want)
		}
	}
}

// TestAbortedSplitCanBeRetried makes the migration read fail (too many
// crashed nodes on the old shard), checks the clean rollback — the shard
// keeps serving once nodes return — and requires that a retried split
// succeeds even though the aborted attempt burned the successor names.
func TestAbortedSplitCanBeRetried(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	want := value.Sequenced(5, 1, dataLen)
	if err := set.Write(5, "s0", want); err != nil {
		t.Fatal(err)
	}
	// F=1, n=4: two crashed nodes make the quorum of 3 unformable, so the
	// migration read fails fast and the move aborts.
	sh := set.Shard("s0")
	for node := 0; node < 2; node++ {
		if err := set.Cluster().CrashObject(sh.Base + node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0"}); err == nil {
		t.Fatal("split with an unformable quorum must abort")
	}
	if got := set.Router().RouteOf("s0").State(); got != shard.RouteActive {
		t.Fatalf("aborted split left s0 in state %v, want active", got)
	}
	for node := 0; node < 2; node++ {
		if err := set.Cluster().RestartObject(sh.Base + node); err != nil {
			t.Fatal(err)
		}
	}
	// The rolled-back shard still serves, and the retry must not collide with
	// the aborted attempt's burned successor names.
	ev, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0"})
	if err != nil {
		t.Fatalf("retried split after abort: %v", err)
	}
	for _, name := range ev.Successors {
		got, err := set.Read(9, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("successor %s read %v, want %v", name, got, want)
		}
	}
	if st := co.Stats(); st.Splits != 1 {
		t.Fatalf("stats after abort+retry = %+v", st)
	}
}

// TestMergeCombinesShards merges two written shards and checks the value-
// ordering rule, routing, lineage, pruned-branch accounting and the ledger.
func TestMergeCombinesShards(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	// s0 gets two writes (ts 2), s1 one (ts 1): both routes are epoch-0
	// installs, so the timestamp decides and s0's value wins.
	if err := set.Write(1, "s0", value.Sequenced(1, 1, dataLen)); err != nil {
		t.Fatal(err)
	}
	want := value.Sequenced(1, 2, dataLen)
	if err := set.Write(1, "s0", want); err != nil {
		t.Fatal(err)
	}
	loserVal := value.Sequenced(2, 1, dataLen)
	if err := set.Write(2, "s1", loserVal); err != nil {
		t.Fatal(err)
	}

	ev, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Successors) != 1 || ev.Successors[0] != "s0+s1" {
		t.Fatalf("successors = %v", ev.Successors)
	}
	// Both sources retired; every key — the old shard names included — now
	// routes to the single successor.
	for _, name := range []string{"s0", "s1"} {
		if got := set.Router().RouteOf(name).State(); got != shard.RouteRetired {
			t.Fatalf("source %s state = %v, want retired", name, got)
		}
		if got := set.ForKey(name).Name; got != "s0+s1" {
			t.Fatalf("ForKey(%q) = %s, want s0+s1", name, got)
		}
	}
	got, err := set.Read(9, "s0+s1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("merged read = %v, want winner value %v", got, want)
	}
	// Lineage follows the winner; the loser is a pruned branch.
	lineage := set.Lineage("s0+s1")
	if len(lineage) != 2 || lineage[0] != "s0" || lineage[1] != "s0+s1" {
		t.Fatalf("lineage = %v, want [s0 s0+s1]", lineage)
	}
	pruned := set.Router().PrunedBranches()
	if len(pruned) != 1 || pruned[0] != "s1" {
		t.Fatalf("pruned branches = %v, want [s1]", pruned)
	}
	st := co.Stats()
	if st.Merges != 1 || st.SeedWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ledger := co.Ledger()
	if len(ledger) != 1 || !ledger[0].Done || ledger[0].Winner != "s0" || ledger[0].Step != StepRetire {
		t.Fatalf("ledger = %+v", ledger)
	}
	if co.InFlight() != nil {
		t.Fatal("completed move still in flight")
	}
	// Storage stays summation-exact across the merge.
	if _, err := storageExact(set); err != nil {
		t.Fatal(err)
	}
}

// TestMergeOrderingPrefersNewerEpoch pins the (epoch, timestamp) rule: a
// source installed in a later epoch wins even when the other source holds a
// higher register timestamp.
func TestMergeOrderingPrefersNewerEpoch(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	// s0 accumulates a high timestamp; s1 is drained onto s1/0 (installed at a
	// later epoch) carrying a low-timestamp value.
	for i := 1; i <= 3; i++ {
		if err := set.Write(1, "s0", value.Sequenced(1, i, dataLen)); err != nil {
			t.Fatal(err)
		}
	}
	want := value.Sequenced(2, 1, dataLen)
	if err := set.Write(2, "s1", want); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Apply(runner, Move{Kind: MoveDrain, Shard: "s1"}); err != nil {
		t.Fatal(err)
	}
	ev, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1/0"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := set.Read(9, ev.Successors[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("merged read = %v, want later-epoch value %v", got, want)
	}
	ledger := co.Ledger()
	if w := ledger[len(ledger)-1].Winner; w != "s1/0" {
		t.Fatalf("winner = %q, want s1/0", w)
	}
}

// TestMergeValidation exercises the merge error paths.
func TestMergeValidation(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	if _, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s0"}); err == nil {
		t.Fatal("self-merge accepted")
	}
	if _, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "nope"}); err == nil {
		t.Fatal("merge with unknown shard accepted")
	}
	if _, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0"}); err == nil {
		t.Fatal("merge without second source accepted")
	}
	if _, err := co.Apply(runner, Move{Kind: MoveSplit, Shard: "s0", Shard2: "s1"}); err == nil {
		t.Fatal("split with second source accepted")
	}
	// Failed validations must not leave ledger entries in flight.
	if co.InFlight() != nil {
		t.Fatalf("in-flight entry after validation failures: %+v", co.InFlight())
	}
	// A merged pair cannot be re-merged.
	if _, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"}); err == nil {
		t.Fatal("re-merge of retired shards accepted")
	}
}

// interruptRunner delegates to an inner runner but fails with ErrInterrupted
// after a fixed number of runner calls — a deterministic stand-in for a
// controller that dies at an arbitrary migration step.
type interruptRunner struct {
	inner Runner
	left  int
}

func (r *interruptRunner) step() error {
	if r.left <= 0 {
		return ErrInterrupted
	}
	r.left--
	return nil
}

func (r *interruptRunner) RunOn(sh *shard.Shard, fn func(h *dsys.ClientHandle) error) error {
	if err := r.step(); err != nil {
		return err
	}
	return r.inner.RunOn(sh, fn)
}

func (r *interruptRunner) Wait(check func() bool) error {
	if err := r.step(); err != nil {
		return err
	}
	return r.inner.Wait(check)
}

func (r *interruptRunner) Checkpoint() error {
	if err := r.step(); err != nil {
		return err
	}
	return r.inner.Checkpoint()
}

// TestInterruptedMovesResumeAtEveryStep kills the driver after every possible
// number of runner calls, for every move kind, and requires that Resume
// re-drives the interrupted move to completion with the migrated value
// intact and no route left mid-lifecycle — the crash-resumability claim,
// checked exhaustively at the unit level (the simulator explores the same
// property under adversarial schedules).
func TestInterruptedMovesResumeAtEveryStep(t *testing.T) {
	moves := []struct {
		name string
		mv   Move
		key  string // key to read back afterwards
	}{
		{name: "split", mv: Move{Kind: MoveSplit, Shard: "s0"}, key: "s0"},
		{name: "drain", mv: Move{Kind: MoveDrain, Shard: "s0"}, key: "s0"},
		{name: "merge", mv: Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"}, key: "s0"},
	}
	for _, tc := range moves {
		t.Run(tc.name, func(t *testing.T) {
			for budget := 0; budget < 32; budget++ {
				set := newSet(t, 2)
				co := NewCoordinator(set)
				clean := NewLiveRunner(set, 1<<28)
				want := value.Sequenced(7, budget+1, dataLen)
				if err := set.Write(7, tc.key, want); err != nil {
					set.Close()
					t.Fatal(err)
				}
				_, err := co.Apply(&interruptRunner{inner: clean, left: budget}, tc.mv)
				if err == nil {
					// The budget outlasted the move: the protocol has no more
					// interruption points to test.
					set.Close()
					return
				}
				if !IsInterruption(err) {
					set.Close()
					t.Fatalf("budget %d: non-interruption error: %v", budget, err)
				}
				fl := co.InFlight()
				if fl == nil || !fl.Interrupted {
					set.Close()
					t.Fatalf("budget %d: interrupted move not in flight: %+v", budget, fl)
				}
				// Mid-migration — successors built, routed or not, a source
				// perhaps draining — the sample still attributes every bit.
				if _, err := storageExact(set); err != nil {
					set.Close()
					t.Fatalf("budget %d: interrupted at step %v: %v", budget, fl.Step, err)
				}
				resumed, _, err := co.Resume(clean)
				if err != nil || !resumed {
					set.Close()
					t.Fatalf("budget %d: resume = %v, %v", budget, resumed, err)
				}
				if co.InFlight() != nil {
					set.Close()
					t.Fatalf("budget %d: move still in flight after resume", budget)
				}
				// The migrated (or surviving) value must read back, and no
				// route may be left seeding or draining.
				got, err := set.Read(9, tc.key)
				if err != nil {
					set.Close()
					t.Fatalf("budget %d: post-resume read: %v", budget, err)
				}
				if !got.Equal(want) {
					set.Close()
					t.Fatalf("budget %d: post-resume read = %v, want %v", budget, got, want)
				}
				for _, name := range set.Router().Names() {
					st := set.Router().RouteOf(name).State()
					if st == shard.RouteSeeding || st == shard.RouteDraining {
						set.Close()
						t.Fatalf("budget %d: route %s left %v after resume", budget, name, st)
					}
				}
				ledger := co.Ledger()
				last := ledger[len(ledger)-1]
				if !last.Done || last.Resumes != 1 {
					set.Close()
					t.Fatalf("budget %d: ledger entry = %+v", budget, last)
				}
				set.Close()
			}
			t.Fatal("interruption budget never outlasted the move; raise the sweep bound")
		})
	}
}

// TestResumeWithoutInFlightMove is a no-op.
func TestResumeWithoutInFlightMove(t *testing.T) {
	set := newSet(t, 1)
	defer set.Close()
	co := NewCoordinator(set)
	resumed, _, err := co.Resume(NewLiveRunner(set, 1<<28))
	if resumed || err != nil {
		t.Fatalf("Resume on empty ledger = %v, %v", resumed, err)
	}
}

// TestMergeAbortRollsBack makes the merge's migration read fail (unformable
// quorum on one source) and checks the clean rollback: both sources active,
// the successor retired, the ledger entry aborted, and a retry succeeding
// after the nodes return.
func TestMergeAbortRollsBack(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	want := value.Sequenced(5, 1, dataLen)
	if err := set.Write(5, "s0", want); err != nil {
		t.Fatal(err)
	}
	sh := set.Shard("s0")
	for node := 0; node < 2; node++ {
		if err := set.Cluster().CrashObject(sh.Base + node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"}); err == nil {
		t.Fatal("merge with an unformable quorum must abort")
	}
	for _, name := range []string{"s0", "s1"} {
		if got := set.Router().RouteOf(name).State(); got != shard.RouteActive {
			t.Fatalf("aborted merge left %s in state %v, want active", name, got)
		}
	}
	ledger := co.Ledger()
	if len(ledger) != 1 || !ledger[0].Aborted || ledger[0].AbortReason == "" {
		t.Fatalf("ledger = %+v", ledger)
	}
	// An aborted merge pruned nothing: neither source's history ends here.
	if pruned := set.Router().PrunedBranches(); len(pruned) != 0 {
		t.Fatalf("aborted merge reports pruned branches: %v", pruned)
	}
	if st := co.Stats(); st.Aborts != 1 || st.Merges != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for node := 0; node < 2; node++ {
		if err := set.Cluster().RestartObject(sh.Base + node); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := co.Apply(runner, Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"})
	if err != nil {
		t.Fatalf("retried merge after abort: %v", err)
	}
	got, err := set.Read(9, ev.Successors[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("post-retry merged read = %v, want %v", got, want)
	}
}

// TestApplyLoopAndEvents drives a sequence of moves through the coordinator
// and checks the event log and ledger rendering (the strings feed simulator
// fingerprints, so every status shape must render).
func TestApplyLoopAndEvents(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	runner := NewLiveRunner(set, 1<<28)

	for _, mv := range []Move{
		{Kind: MoveSplit, Shard: "s0"},
		{Kind: MoveMerge, Shard: "s0/0", Shard2: "s0/1"},
	} {
		if _, err := co.Apply(runner, mv); err != nil {
			t.Fatalf("%v: %v", mv, err)
		}
	}
	evs := co.Events()
	if len(evs) != 2 || evs[0].Kind != MoveSplit || evs[1].Kind != MoveMerge {
		t.Fatalf("events = %v", evs)
	}
	if evs[1].String() == "" || evs[1].Shard2 != "s0/1" {
		t.Fatalf("merge event = %+v", evs[1])
	}
	if _, err := co.Apply(runner, Move{Kind: MoveKind(99)}); err == nil {
		t.Fatal("unknown move kind accepted")
	}
	for _, m := range co.Ledger() {
		if m.String() == "" {
			t.Fatalf("empty ledger rendering for %+v", m)
		}
	}
	for _, mv := range []Move{{Kind: MoveSplit, Shard: "x"}, {Kind: MoveMerge, Shard: "a", Shard2: "b"}} {
		if mv.String() == "" {
			t.Fatalf("empty move rendering for %+v", mv)
		}
	}
	for _, k := range []MoveKind{MoveSplit, MoveDrain, MoveMerge, MoveKind(99)} {
		if k.String() == "" {
			t.Fatalf("empty kind rendering for %d", int(k))
		}
	}
	for _, s := range []MoveStep{StepPlanned, StepGrowRegions, StepTableFlip, StepDrain, StepSeed, StepActivate, StepRetire, MoveStep(99)} {
		if s.String() == "" {
			t.Fatalf("empty step rendering for %d", int(s))
		}
	}
}

// TestControlledRunnerDrivesMove applies a split through the controlled-mode
// runner: the migration runs as a scheduled client task, every wait yields to
// the policy, and the move completes under the fair scheduler.
func TestControlledRunnerDrivesMove(t *testing.T) {
	specs := []shard.Spec{
		{Name: "s0", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: dataLen}},
		{Name: "s1", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: dataLen}},
	}
	set, err := shard.New(specs, dsys.WithControlledMode())
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	cluster := set.Cluster()
	co := NewCoordinator(set)

	var ev Event
	th := cluster.SpawnScoped(1<<20, 0, cluster.N(), func(h *dsys.ClientHandle) error {
		r := NewControlledRunner(h)
		var err error
		ev, err = co.Apply(r, Move{Kind: MoveSplit, Shard: "s0"})
		return err
	})
	cluster.Start()
	if reason := cluster.WaitIdle(); reason != dsys.IdleQuiesced {
		t.Fatalf("idle reason = %v", reason)
	}
	cluster.Close()
	if err := th.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(ev.Successors) != 2 {
		t.Fatalf("controlled split event = %+v", ev)
	}
	if st := co.Stats(); st.Splits != 1 || st.SeedWrites != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResumeSeedsRecordedValueNotRereadValue pins the ledger-recorded seed:
// a drained source is not frozen — a crashed client's in-flight RMW can
// still land between interrupted attempts — so a resumed driver must seed
// the value the ledger recorded before the first seed RMW was issued, never
// a re-read one (two different values at the fixed seed timestamp would be
// undecodable). The test interrupts a split right after the value was
// chosen, mutates the drained source directly (the late-landing RMW), and
// requires the successors to carry the originally recorded value.
func TestResumeSeedsRecordedValueNotRereadValue(t *testing.T) {
	for budget := 0; budget < 32; budget++ {
		set := newSet(t, 2)
		co := NewCoordinator(set)
		clean := NewLiveRunner(set, 1<<28)

		recorded := value.Sequenced(7, 1, dataLen)
		if err := set.Write(7, "s0", recorded); err != nil {
			set.Close()
			t.Fatal(err)
		}
		_, err := co.Apply(&interruptRunner{inner: clean, left: budget}, Move{Kind: MoveSplit, Shard: "s0"})
		if err == nil {
			set.Close()
			return // budget outlasted the move: every choose-point was tested
		}
		if !IsInterruption(err) {
			set.Close()
			t.Fatalf("budget %d: non-interruption error: %v", budget, err)
		}
		fl := co.InFlight()
		if fl == nil {
			set.Close()
			t.Fatalf("budget %d: no in-flight move", budget)
		}
		if fl.Step < StepChooseValue {
			set.Close()
			continue // value not chosen yet; a later re-read is legitimate
		}
		if !fl.SeedChosen || !fl.SeedValue.Equal(recorded) {
			set.Close()
			t.Fatalf("budget %d: ledger recorded %v (chosen=%v), want %v",
				budget, fl.SeedValue, fl.SeedChosen, recorded)
		}
		// The late-landing RMW of a crashed client: the drained source's
		// register changes under the interrupted move.
		late := value.Sequenced(8, 9, dataLen)
		if err := set.WriteValue(8, set.Shard("s0"), late); err != nil {
			set.Close()
			t.Fatal(err)
		}
		if resumed, _, err := co.Resume(clean); err != nil || !resumed {
			set.Close()
			t.Fatalf("budget %d: resume = %v, %v", budget, resumed, err)
		}
		for _, name := range []string{"s0/0", "s0/1"} {
			got, err := set.Read(9, name)
			if err != nil {
				set.Close()
				t.Fatalf("budget %d: read %s: %v", budget, name, err)
			}
			if !got.Equal(recorded) {
				set.Close()
				t.Fatalf("budget %d: successor %s carries %v, want the recorded %v",
					budget, name, got, recorded)
			}
		}
		set.Close()
	}
	t.Fatal("interruption budget never outlasted the move; raise the sweep bound")
}

// TestMergeRejectsMixedEmulations pins the coordinator-level capability
// check: merging shards with different register emulations is refused (the
// successor inherits one emulation and the stitched lineage is checked under
// its condition, so a weaker prefix must not be smuggled in).
func TestMergeRejectsMixedEmulations(t *testing.T) {
	set, err := shard.New([]shard.Spec{
		{Name: "a", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: dataLen}},
		{Name: "b", Algorithm: "safereg", Config: register.Config{F: 1, K: 2, DataLen: dataLen}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	co := NewCoordinator(set)
	if _, err := co.Apply(NewLiveRunner(set, 1<<28), Move{Kind: MoveMerge, Shard: "a", Shard2: "b"}); err == nil {
		t.Fatal("cross-emulation merge accepted")
	}
	for _, name := range []string{"a", "b"} {
		if got := set.Router().RouteOf(name).State(); got != shard.RouteActive {
			t.Fatalf("rejected merge left %s %v", name, got)
		}
	}
	if co.InFlight() != nil {
		t.Fatal("rejected merge left an in-flight entry")
	}
}

// abortInterruptRunner fails the failAt-th runner call with a genuine
// (non-interruption) error — forcing the driver onto the abort path — and then
// interrupts after budget further runner calls, so the sweep below can kill
// the driver at every checkpoint of the rollback itself.
type abortInterruptRunner struct {
	inner  Runner
	failAt int // 1-based runner call that fails with errBoom
	budget int // runner calls allowed after the failure before ErrInterrupted
	calls  int
	failed bool
}

var errBoom = errors.New("injected migration failure")

func (r *abortInterruptRunner) step() error {
	r.calls++
	if !r.failed {
		if r.calls == r.failAt {
			r.failed = true
			return errBoom
		}
		return nil
	}
	if r.budget <= 0 {
		return ErrInterrupted
	}
	r.budget--
	return nil
}

func (r *abortInterruptRunner) RunOn(sh *shard.Shard, fn func(h *dsys.ClientHandle) error) error {
	if err := r.step(); err != nil {
		return err
	}
	return r.inner.RunOn(sh, fn)
}

func (r *abortInterruptRunner) Wait(check func() bool) error {
	if err := r.step(); err != nil {
		return err
	}
	return r.inner.Wait(check)
}

func (r *abortInterruptRunner) Checkpoint() error {
	if err := r.step(); err != nil {
		return err
	}
	return r.inner.Checkpoint()
}

// TestAbortInterruptedMidRollbackResumes closes the gap the per-step
// interruption sweep left open: the rollback itself is a multi-stage protocol
// now (record the abort, unwind the table, retire the successors), and a
// controller can die between any two of its stages. The sweep injects a
// genuine migration failure at every runner call of every abortable move kind
// and then kills the driver after every possible number of rollback calls;
// Resume must recognize the mid-abort entry (Aborting) and finish the
// rollback — never re-drive the forward path — leaving the sources active,
// the topology writable, and the move retryable.
func TestAbortInterruptedMidRollbackResumes(t *testing.T) {
	moves := []struct {
		name string
		mv   Move
		key  string
	}{
		{name: "split", mv: Move{Kind: MoveSplit, Shard: "s0"}, key: "s0"},
		{name: "drain", mv: Move{Kind: MoveDrain, Shard: "s0"}, key: "s0"},
		{name: "merge", mv: Move{Kind: MoveMerge, Shard: "s0", Shard2: "s1"}, key: "s0"},
	}
	for _, tc := range moves {
		t.Run(tc.name, func(t *testing.T) {
			midAbort := 0 // interruptions that landed inside the rollback
		sweep:
			for failAt := 1; failAt <= 64; failAt++ {
				for budget := 0; budget < 4; budget++ {
					set := newSet(t, 2)
					co := NewCoordinator(set)
					clean := NewLiveRunner(set, 1<<28)
					want := value.Sequenced(7, failAt*8+budget+1, dataLen)
					if err := set.Write(7, tc.key, want); err != nil {
						set.Close()
						t.Fatal(err)
					}
					r := &abortInterruptRunner{inner: clean, failAt: failAt, budget: budget}
					_, err := co.Apply(r, tc.mv)
					if !r.failed {
						// failAt outlasted the move's runner calls: every
						// failure point of this kind has been swept.
						if err != nil {
							set.Close()
							t.Fatalf("failAt %d: clean run failed: %v", failAt, err)
						}
						set.Close()
						break sweep
					}
					aborted := true
					if IsInterruption(err) {
						fl := co.InFlight()
						if fl == nil || !fl.Interrupted {
							set.Close()
							t.Fatalf("failAt %d budget %d: interrupted move not in flight: %+v", failAt, budget, fl)
						}
						if fl.Aborting {
							// Driver died mid-rollback. Resume must finish the
							// rollback and surface the abort cause as a
							// non-interruption error.
							midAbort++
							resumed, _, rerr := co.Resume(clean)
							if !resumed || rerr == nil || IsInterruption(rerr) {
								set.Close()
								t.Fatalf("failAt %d budget %d: resume of mid-abort move = %v, %v", failAt, budget, resumed, rerr)
							}
						} else {
							// The injected failure landed past the abort window
							// (after activation every failure is a driver
							// death); Resume completes the move forward.
							aborted = false
							resumed, _, rerr := co.Resume(clean)
							if !resumed || rerr != nil {
								set.Close()
								t.Fatalf("failAt %d budget %d: resume past point of no return = %v, %v", failAt, budget, resumed, rerr)
							}
						}
					} else if fl := co.InFlight(); fl != nil {
						// The genuine failure landed on a stage with no
						// rollback (the pre-retire wait): the entry stays
						// resumable but the error keeps its identity — the
						// driver is alive and the move is still its to finish.
						if !errors.Is(err, errBoom) || !fl.Interrupted {
							set.Close()
							t.Fatalf("failAt %d budget %d: in-flight failure lost its cause: %v (%+v)", failAt, budget, err, fl)
						}
						if fl.Aborting {
							midAbort++
							resumed, _, rerr := co.Resume(clean)
							if !resumed || rerr == nil || IsInterruption(rerr) {
								set.Close()
								t.Fatalf("failAt %d budget %d: resume of mid-abort move = %v, %v", failAt, budget, resumed, rerr)
							}
						} else {
							aborted = false
							resumed, _, rerr := co.Resume(clean)
							if !resumed || rerr != nil {
								set.Close()
								t.Fatalf("failAt %d budget %d: resume past point of no return = %v, %v", failAt, budget, resumed, rerr)
							}
						}
					} else if !errors.Is(err, errBoom) {
						set.Close()
						t.Fatalf("failAt %d budget %d: abort lost its cause: %v", failAt, budget, err)
					}
					if co.InFlight() != nil {
						set.Close()
						t.Fatalf("failAt %d budget %d: move still in flight: %+v", failAt, budget, co.InFlight())
					}
					ledger := co.Ledger()
					last := ledger[len(ledger)-1]
					if aborted && (!last.Aborted || !strings.Contains(last.AbortReason, "injected")) {
						set.Close()
						t.Fatalf("failAt %d budget %d: ledger entry = %+v", failAt, budget, last)
					}
					if !aborted && !last.Done {
						set.Close()
						t.Fatalf("failAt %d budget %d: ledger entry = %+v", failAt, budget, last)
					}
					// No route may be left mid-lifecycle, and the rolled-back
					// (or completed) topology must serve reads and writes.
					for _, name := range set.Router().Names() {
						st := set.Router().RouteOf(name).State()
						if st == shard.RouteSeeding || st == shard.RouteDraining {
							set.Close()
							t.Fatalf("failAt %d budget %d: route %s left %v", failAt, budget, name, st)
						}
					}
					got, err := set.Read(9, tc.key)
					if err != nil || !got.Equal(want) {
						set.Close()
						t.Fatalf("failAt %d budget %d: post-rollback read = %v, %v (want %v)", failAt, budget, got, err, want)
					}
					after := value.Sequenced(11, failAt*8+budget+2, dataLen)
					if err := set.Write(11, tc.key, after); err != nil {
						set.Close()
						t.Fatalf("failAt %d budget %d: post-rollback write: %v", failAt, budget, err)
					}
					if aborted {
						// The aborted move must be retryable on the restored
						// topology (burned names suffixed away).
						if _, err := co.Apply(clean, tc.mv); err != nil {
							set.Close()
							t.Fatalf("failAt %d budget %d: retry after abort: %v", failAt, budget, err)
						}
					}
					set.Close()
				}
			}
			if midAbort < 2 {
				t.Fatalf("sweep never interrupted the rollback at both checkpoints (midAbort=%d); the abort path lost its scheduling points", midAbort)
			}
		})
	}
}
