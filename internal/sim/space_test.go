package sim

import (
	"strings"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
)

// heldBits is a base-object state holding one block of the given size.
type heldBits int

func (b heldBits) Blocks() []dsys.BlockRef { return []dsys.BlockRef{{Bits: int(b)}} }

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
	recs := &simRecorders{}
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
	if !strings.Contains(FormatFailure(res), "quiescent space bound violated: s0-adaptive (adaptive): planted") {
		t.Fatalf("report misses the violation:\n%s", FormatFailure(res))
	}
	if fingerprint(res) == clean {
		t.Fatal("the violation did not enter the fingerprint")
	}
}
