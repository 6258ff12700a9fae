package node

import (
	"errors"
	"testing"
	"time"

	"spacebounds/internal/register"
	"spacebounds/internal/shard"
)

// newFaultFixture builds a small shard set and an injector over it whose loop
// is not running (ticks are driven by hand), with a fresh injector state.
func newFaultFixture(t *testing.T, cfg FaultConfig, shards ...string) (*injector, *injectorState) {
	t.Helper()
	specs := make([]shard.Spec, 0, len(shards))
	for _, name := range shards {
		specs = append(specs, shard.Spec{Name: name, Algorithm: "adaptive", Config: register.Config{F: 1, K: 1, DataLen: 32}})
	}
	set, err := shard.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	return &injector{set: set, cfg: cfg}, newInjectorState(1)
}

// TestInjectorSkipsEmptyShardList pins the empty-topology guard: a tick that
// observes no routable shard (reconfiguration can transiently retire every
// route) must be a no-op instead of panicking in rng.Intn(0).
func TestInjectorSkipsEmptyShardList(t *testing.T) {
	fi, st := newFaultFixture(t, FaultConfig{Interval: time.Millisecond}, "a")
	fi.set.Router().MarkRetired("a")
	if got := len(fi.set.Shards()); got != 0 {
		t.Fatalf("fixture still has %d shards; want an empty list", got)
	}
	for i := 0; i < 8; i++ {
		fi.tick(st, time.Now()) // must not panic
	}
	if stats := fi.Stats(); stats.Crashes != 0 {
		t.Fatalf("crashes injected against an empty topology: %+v", stats)
	}
}

// TestInjectorPrunesRetiredShardBudget pins the budget-map hygiene: outages
// whose shard was retired are released (counted as RetiredOutages), and downIn
// never keeps entries for names absent from the re-read shard list — under
// reconfiguration churn the old code grew the map without bound.
func TestInjectorPrunesRetiredShardBudget(t *testing.T) {
	fi, st := newFaultFixture(t, FaultConfig{Interval: time.Millisecond}, "a", "b")
	now := time.Now()
	st.down = []outage{{since: now, node: fi.set.Shard("a").Base, shard: "a"}}
	st.downIn = map[string]int{"a": 1, "ghost": 3} // "ghost" simulates accumulated stale entries
	fi.set.Router().MarkRetired("a")

	fi.tick(st, now)

	if stats := fi.Stats(); stats.RetiredOutages != 1 {
		t.Fatalf("retired outage not released: %+v", stats)
	}
	for name := range st.downIn {
		if name != "b" {
			t.Fatalf("downIn keeps entry for non-live shard %q: %v", name, st.downIn)
		}
	}
	for _, o := range st.down {
		if o.shard == "a" {
			t.Fatalf("outage for retired shard survived: %+v", st.down)
		}
	}
}

// TestInjectorKeepsBudgetOnFailedRestart pins the crash-budget accounting: a
// restart that fails while the node's region is still live must NOT release
// the outage — the node is still down, and freeing its budget slot would let
// the injector crash a second node in an F=1 shard and break its quorums. The
// restart failure is injected via the hook, so it is exactly the
// "down for reasons other than region retirement" case.
func TestInjectorKeepsBudgetOnFailedRestart(t *testing.T) {
	fi, st := newFaultFixture(t, FaultConfig{Interval: time.Millisecond, Downtime: time.Millisecond}, "a")
	sh := fi.set.Shard("a")
	if err := fi.set.Cluster().CrashObject(sh.Base); err != nil {
		t.Fatal(err)
	}
	fi.restartHook = func(node int) error { return errors.New("injected restart failure") }

	now := time.Now()
	st.down = []outage{{since: now.Add(-time.Hour), node: sh.Base, shard: "a"}}
	for i := 0; i < 32; i++ {
		now = now.Add(2 * time.Millisecond)
		fi.tick(st, now)
		if len(st.down) != 1 || st.downIn["a"] != 1 {
			t.Fatalf("tick %d: failed restart released the outage: down=%v downIn=%v", i, st.down, st.downIn)
		}
	}
	stats := fi.Stats()
	if stats.Crashes != 0 {
		t.Fatalf("injector crashed %d nodes while the shard's budget was exhausted (F=%d, 1 node already down)",
			stats.Crashes, sh.Reg.Config().F)
	}
	if stats.FailedRestarts == 0 {
		t.Fatalf("failed restart attempts not counted: %+v", stats)
	}
	if got := len(fi.set.Cluster().CrashedObjects()); got != 1 {
		t.Fatalf("%d nodes down, want exactly the original 1 (F=%d)", got, sh.Reg.Config().F)
	}

	// Once the restart succeeds the budget is released — the same tick's
	// crash attempt may immediately use the freed slot, which is exactly the
	// point: budget moves only on success, never on failure.
	fi.restartHook = nil
	now = now.Add(2 * time.Millisecond)
	fi.tick(st, now)
	stats = fi.Stats()
	if stats.Restarts != 1 {
		t.Fatalf("successful restart not counted: %+v", stats)
	}
	if len(st.down) != stats.Crashes || st.downIn["a"] != stats.Crashes {
		t.Fatalf("post-restart accounting off: down=%v downIn=%v stats=%+v", st.down, st.downIn, stats)
	}
	if got := len(fi.set.Cluster().CrashedObjects()); got > sh.Reg.Config().F {
		t.Fatalf("%d nodes down after restart tick, budget is F=%d", got, sh.Reg.Config().F)
	}
}
