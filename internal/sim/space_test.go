package sim

import (
	"strings"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
)

// heldBits is a base-object state holding one block of the given size.
type heldBits int

func (b heldBits) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef {
	return append(dst, dsys.BlockRef{Bits: int(b)})
}

// TestQuiescentSpaceFlagsWhatARegionKeeps plants states the registers never
// leave behind — a live object with a second piece, a crashed object above
// its ceiling — and checks that the clause names each region once, and that
// a retired region counts for nothing.
func TestQuiescentSpaceFlagsWhatARegionKeeps(t *testing.T) {
	cfg := register.Config{F: 1, K: 2, DataLen: 8} // pieces of 32 bits, D = 64
	set, err := shard.New([]shard.Spec{
		{Name: "a", Algorithm: "adaptive", Config: cfg},
		{Name: "s", Algorithm: "safereg", Config: cfg},
	}, dsys.WithControlledMode())
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	recs := history.NewRecorders(nil)
	if v := quiescentSpace(set, recs); len(v) != 0 {
		t.Fatalf("initial states flagged: %v", v)
	}
	cluster := set.Cluster()
	a, s := set.Shard("a"), set.Shard("s")
	plant := func(obj int, bits heldBits) {
		t.Helper()
		if err := cluster.RestoreObjectState(obj, bits); err != nil {
			t.Fatal(err)
		}
	}
	plant(a.Base, 64)     // a live adaptive object keeping an older piece
	plant(s.Base+1, 2*64) // at the 2D ceiling adaptive allows, not safereg's D/k
	plant(a.Base+1, 2*64) // a crashed adaptive object at its ceiling: allowed
	if err := cluster.CrashObject(a.Base + 1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CrashObject(s.Base + 1); err != nil {
		t.Fatal(err)
	}
	v := quiescentSpace(set, recs)
	if len(v) != 2 || !strings.Contains(v[0], "a (adaptive): 3 live objects hold 128 bits") ||
		!strings.Contains(v[1], "crashed object 5 holds 128 bits, above its ceiling of 32") {
		t.Fatalf("violations = %q", v)
	}
	if err := cluster.RetireObjects(a.Base, a.Span); err != nil {
		t.Fatal(err)
	}
	if v := quiescentSpace(set, recs); len(v) != 1 || !strings.HasPrefix(v[0], "s (safereg)") {
		t.Fatalf("after retiring a: violations = %q", v)
	}
}

// TestSpaceViolationFailsTheRun checks the wiring: a violation fails the
// run, is reported, and enters the fingerprint, which it leaves as it was
// when there is none.
func TestSpaceViolationFailsTheRun(t *testing.T) {
	res, err := Run(tinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() || len(res.SpaceViolations) != 0 {
		t.Fatalf("clean seed failed: %s", FormatFailure(res))
	}
	clean := fingerprint(res)
	res.SpaceViolations = []string{"s0-adaptive (adaptive): planted"}
	if !res.Failed() {
		t.Fatal("a space violation does not fail the run")
	}
	if !strings.Contains(FormatFailure(res), "space bound violated: s0-adaptive (adaptive): planted") {
		t.Fatalf("report misses the violation:\n%s", FormatFailure(res))
	}
	if fingerprint(res) == clean {
		t.Fatal("the violation did not enter the fingerprint")
	}
}

// oneBlock is the adaptive register under a second provider name. The space
// rule knows no such provider, so it holds it to the one-block rule of abd
// and safereg, which adaptive breaks whenever a write stores more than a
// piece.
const oneBlock = "adaptive-held-to-one-block"

func init() {
	register.RegisterProvider(oneBlock, func(cfg register.Config) (register.Register, error) {
		return register.NewByName("adaptive", cfg)
	})
}

// TestSpaceRuleHoldsEveryStep: the step rule catches what the quiescent
// form cannot. Seed 1 of the planted provider ends quiesced with every
// object back at one piece, so only the step at which an object held more
// than one block is reported: once for its region, with the step, c, the
// bits and the bound.
func TestSpaceRuleHoldsEveryStep(t *testing.T) {
	cfg := Config{Seed: 1, Shards: []ShardPlan{{Provider: oneBlock}}, Clients: 3, OpsPerClient: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := "s0-" + oneBlock + " (" + oneBlock + ") at step 16, c = 2: object 0 holds 64 bits, above its ceiling of 32"
	if res.Reason != dsys.IdleQuiesced || len(res.SpaceViolations) != 1 || res.SpaceViolations[0] != want {
		t.Fatalf("run ended %s with space violations %q, want only %q", res.Reason, res.SpaceViolations, want)
	}
	if !res.Failed() || !strings.Contains(FormatFailure(res), "space bound violated: "+want+"\n") {
		t.Fatalf("the breach does not fail the seed or is missing from its report:\n%s", FormatFailure(res))
	}
	if _, err := Replay(cfg, res.Fingerprint); err != nil {
		t.Fatal(err) // the fingerprint holds the breach: the rule replays with its seed
	}
}

// TestSpaceRuleUsesTheWindowC pins the rule's c. In adaptive sequential seed
// 276 a write's replica waits in an object's Vf while the previous write's
// straggler GC keeps Vp full; that GC lands and the writes active at once
// fall to one, but the object keeps a piece and a replica until the later
// write's GC. Theorem 2 at the instantaneous c fails that step; at the
// window c — the most writes active at once since the oldest active write
// began — the seed runs clean.
func TestSpaceRuleUsesTheWindowC(t *testing.T) {
	res, err := Run(Config{Seed: 276, Shards: []ShardPlan{{Provider: "adaptive"}}, Clients: 1, OpsPerClient: 6, CheckLinearizable: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("adaptive sequential seed 276 failed:\n%s", FormatFailure(res))
	}
}
