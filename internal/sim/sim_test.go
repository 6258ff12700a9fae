package sim

import (
	"fmt"
	"strings"
	"testing"

	"spacebounds/internal/history"
	"spacebounds/internal/value"
)

// tinyConfig keeps unit-test runs fast while still exercising faults.
func tinyConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		Shards:       []ShardPlan{{Provider: "adaptive"}, {Provider: "abd"}},
		Clients:      3,
		OpsPerClient: 3,
	}
}

func TestRunIsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		a, err := Run(tinyConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(tinyConfig(seed))
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("seed %d: fingerprints diverge:\n%s\n%s", seed, a.Fingerprint, b.Fingerprint)
		}
		if a.Steps != b.Steps || a.Reason != b.Reason {
			t.Fatalf("seed %d: steps/reason diverge: %d/%s vs %d/%s", seed, a.Steps, a.Reason, b.Steps, b.Reason)
		}
		if len(a.Verdicts) != len(b.Verdicts) {
			t.Fatalf("seed %d: verdict counts diverge", seed)
		}
		for i := range a.Verdicts {
			if (a.Verdicts[i].Err == nil) != (b.Verdicts[i].Err == nil) {
				t.Fatalf("seed %d: verdict %d diverges", seed, i)
			}
		}
	}
}

func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	a, err := Run(tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("different seeds produced identical fingerprints; the explorer is not exploring")
	}
}

func TestReplayMatchesAndDetectsDivergence(t *testing.T) {
	cfg := tinyConfig(99)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(cfg, res.Fingerprint); err != nil {
		t.Fatalf("replay of the same seed must reproduce the fingerprint: %v", err)
	}
	other := cfg
	other.Seed = 100
	if _, err := Replay(other, res.Fingerprint); err == nil {
		t.Fatal("replay with a different seed must report divergence")
	}
}

func TestRunsAreCheckedCleanAcrossProviders(t *testing.T) {
	// All four providers must satisfy their claimed conditions across a seed
	// sweep with the standard adversarial mix. This is the in-test version of
	// the CI soak.
	if testing.Short() {
		t.Skip("seed sweep is not short")
	}
	failures, err := Explore(Config{Clients: 2, OpsPerClient: 3}, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("seed %d failed:\n%s", f.Seed, FormatFailure(f))
	}
}

func TestSequentialConfigurationIsLinearizable(t *testing.T) {
	// One client per shard: operations are sequential, so regularity
	// coincides with atomicity and the Wing&Gong checker must pass.
	failures, err := Explore(Config{Clients: 1, OpsPerClient: 5, CheckLinearizable: true}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("sequential seed %d failed:\n%s", f.Seed, FormatFailure(f))
	}
}

func TestFaultsAreInjected(t *testing.T) {
	// Across a seed range the adversary must actually exercise its powers.
	sawObjectFault, sawClientCrash := false, false
	for seed := int64(1); seed <= 20 && !(sawObjectFault && sawClientCrash); seed++ {
		res, err := Run(tinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.CrashedObjects) > 0 || len(res.SuspendedObjects) > 0 {
			sawObjectFault = true
		}
		if len(res.CrashedClients) > 0 {
			sawClientCrash = true
		}
	}
	if !sawObjectFault {
		t.Error("no object was ever crashed or suspended across 20 seeds")
	}
	if !sawClientCrash {
		t.Error("no client was ever crashed across 20 seeds")
	}
}

// plantStaleRead injects a read that returns the value of an overwritten
// write with an interval that cleanly follows both writes — a regularity
// violation slipped in behind the checker, as if the runtime had returned a
// stale value.
func plantStaleRead(t *testing.T, h *history.History) *history.History {
	t.Helper()
	writes := h.Writes()
	var w1 *history.Op
	for _, a := range writes {
		for _, b := range writes {
			if a != b && a.Completed() && b.Completed() && a.Returned < b.Invoked {
				w1 = a // overwritten by b; its value is stale after b returns
			}
		}
	}
	if w1 == nil {
		t.Skip("history has no two sequential completed writes")
	}
	last := h.Ops[len(h.Ops)-1]
	stale := &history.Op{
		ID:       last.ID + 1,
		Client:   9999,
		Kind:     history.Read,
		Value:    w1.Value,
		Invoked:  last.Returned + 10,
		Returned: last.Returned + 11,
	}
	ops := append(append([]*history.Op(nil), h.Ops...), stale)
	return &history.History{V0: h.V0, Ops: ops}
}

func TestPlantedViolationIsCaughtAndShrunk(t *testing.T) {
	// Find a seed whose adaptive shard has two sequential writes, plant a
	// stale read behind the checker, and require detection plus a shrunken
	// reproducer of at most 10 events (the acceptance bound; greedy
	// minimization typically gets to 1-3).
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(tinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		v := res.Verdicts[0]
		if v.Err != nil {
			t.Fatalf("seed %d: clean run expected, got %v", seed, v.Err)
		}
		if !hasSequentialWrites(v.History) {
			continue
		}
		tampered := plantStaleRead(t, v.History)
		err = history.CheckStrongRegularity(tampered)
		if err == nil {
			t.Fatalf("seed %d: planted stale read not caught", seed)
		}
		shrunk := ShrinkHistory(tampered, history.CheckStrongRegularity)
		if n := len(shrunk.Ops); n > 10 {
			t.Fatalf("seed %d: shrunken history has %d events, want <= 10", seed, n)
		}
		if history.CheckStrongRegularity(shrunk) == nil {
			t.Fatalf("seed %d: shrunken history no longer fails", seed)
		}
		return
	}
	t.Fatal("no seed produced two sequential writes to tamper with")
}

func TestShrinkKeepsPassingHistoriesIntact(t *testing.T) {
	v0 := value.Zero(4)
	h := &history.History{V0: v0, Ops: []*history.Op{
		{ID: 1, Client: 1, Kind: history.Write, Value: value.Sequenced(1, 1, 4), Invoked: 1, Returned: 2},
	}}
	if got := ShrinkHistory(h, history.CheckStrongRegularity); len(got.Ops) != 1 {
		t.Fatalf("passing history must be returned unchanged, got %d ops", len(got.Ops))
	}
}

func TestFormatFailureMentionsSeedAndShrunkHistory(t *testing.T) {
	// Build a synthetic failing result through the public path: tamper with a
	// run's history and re-verify through the same code Run uses.
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(tinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		v := res.Verdicts[0]
		if !hasSequentialWrites(v.History) {
			continue
		}
		tampered := plantStaleRead(t, v.History)
		bad := verdict(v.Shard, v.Provider, v.Condition, v.Lineage, tampered, history.CheckStrongRegularity)
		if bad.Err == nil {
			t.Fatal("tampered history must fail")
		}
		res.Verdicts = []ShardVerdict{bad}
		out := FormatFailure(res)
		for _, want := range []string{fmt.Sprintf("seed %d", seed), "minimal failing history", v.Shard} {
			if !strings.Contains(out, want) {
				t.Fatalf("failure report missing %q:\n%s", want, out)
			}
		}
		return
	}
	t.Fatal("no seed produced two sequential writes to tamper with")
}

// hasSequentialWrites reports whether the history has two completed writes
// separated in real time (a prerequisite for planting a stale read).
func hasSequentialWrites(h *history.History) bool {
	writes := h.Writes()
	for _, a := range writes {
		for _, b := range writes {
			if a != b && a.Completed() && b.Completed() && a.Returned < b.Invoked {
				return true
			}
		}
	}
	return false
}

// TestSmokeAdaptiveLegFiresFollowUpUnderCrashes: the "adaptive x2" leg of
// `make sim-smoke` (two adaptive shards, three clients each, four operations,
// seeds 1..50) reaches the piece-first write's follow-up round — a write that
// finds Vp full on too many objects and sends them the replica — in runs whose
// fault schedule crashed base objects, and every one of those runs keeps its
// verdicts. Other providers never send an object four RMWs of one write.
func TestSmokeAdaptiveLegFiresFollowUpUnderCrashes(t *testing.T) {
	leg := func(provider string, seed int64) *Result {
		res, err := Run(Config{Seed: seed, Shards: []ShardPlan{{Provider: provider}, {Provider: provider}}, Clients: 3, OpsPerClient: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("%s, seed %d:\n%s", provider, seed, FormatFailure(res))
		}
		return res
	}
	fired, underCrashes := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		if res := leg("adaptive", seed); res.FollowUpUpdates > 0 {
			fired++
			if len(res.CrashedObjects) > 0 {
				underCrashes++
			}
		}
		for _, provider := range []string{"abd", "ecreg", "safereg"} {
			if res := leg(provider, seed); res.FollowUpUpdates != 0 {
				t.Errorf("%s, seed %d: %d objects applied four RMWs of one write", provider, seed, res.FollowUpUpdates)
			}
		}
	}
	t.Logf("the follow-up round fired in %d of 50 seeds, %d of them with crashed objects", fired, underCrashes)
	if underCrashes == 0 {
		t.Errorf("the follow-up round fired in %d of 50 seeds and in none with crashed objects", fired)
	}
}
