package shard_test

import (
	"fmt"
	"testing"

	"spacebounds/internal/register"
	_ "spacebounds/internal/register/adaptive"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// TestForKeyGoldenMapping pins the FNV-1a key→shard mapping bit for bit: the
// router replaced the static map of PR 1, and any future routing refactor
// that silently remapped keys would shift every deployment's data placement.
// The expected indices were computed once from hash/fnv and are frozen here.
func TestForKeyGoldenMapping(t *testing.T) {
	golden := map[int]map[string]int{
		2: {
			"": 1, "user-0": 1, "user-1": 0, "user-42": 1,
			"key-0": 1, "key-1": 0, "key-7": 0,
			"alpha": 1, "beta": 1, "gamma": 0, "delta": 1,
			"the-quick-brown-fox": 1, "\x00\x01": 0,
		},
		4: {
			"": 1, "user-0": 3, "user-1": 0, "user-42": 3,
			"key-0": 1, "key-1": 2, "key-7": 0,
			"alpha": 3, "beta": 3, "gamma": 2, "delta": 1,
			"the-quick-brown-fox": 3, "\x00\x01": 2,
		},
		8: {
			"": 5, "user-0": 7, "user-1": 4, "user-42": 3,
			"key-0": 1, "key-1": 6, "key-7": 4,
			"alpha": 3, "beta": 7, "gamma": 2, "delta": 1,
			"the-quick-brown-fox": 3, "\x00\x01": 2,
		},
	}
	for n, want := range golden {
		set, err := shard.New(specsNamed(n, "shard-%d"))
		if err != nil {
			t.Fatal(err)
		}
		for key, idx := range want {
			if got := set.ForKey(key).Name; got != fmt.Sprintf("shard-%d", idx) {
				t.Errorf("n=%d ForKey(%q) = %s, want shard-%d", n, key, got, idx)
			}
		}
		set.Close()
	}
}

func specsNamed(n int, format string) []shard.Spec {
	specs := make([]shard.Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, shard.Spec{
			Name:      fmt.Sprintf(format, i),
			Algorithm: "adaptive",
			Config:    register.Config{F: 1, K: 2, DataLen: 16},
		})
	}
	return specs
}

// TestForKeyEdgeCases covers the routing corner cases: the empty key (a valid
// hashed key, not an error), a key exactly equal to a shard name (exact match
// beats the hash), and a key equal to a shard name with different case (no
// match — names are case-sensitive, so it hashes).
func TestForKeyEdgeCases(t *testing.T) {
	set, err := shard.New(specsNamed(4, "s%d"))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Empty key: deterministic hash routing, never a panic or nil.
	if a, b := set.ForKey(""), set.ForKey(""); a == nil || a != b {
		t.Fatalf("ForKey(\"\") unstable: %v vs %v", a, b)
	}
	// A write under the empty key round-trips like any other key.
	if err := set.Write(1, "", value.Sequenced(1, 1, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Read(2, ""); err != nil {
		t.Fatal(err)
	}

	// Exact shard names route to themselves, whatever they would hash to.
	for _, sh := range set.Shards() {
		if got := set.ForKey(sh.Name); got != sh {
			t.Errorf("ForKey(%q) = %s, want exact match", sh.Name, got.Name)
		}
	}
	// Case matters: "S0" is not the shard "s0", it is an ordinary hashed key.
	if got := set.ForKey("S0"); got == nil {
		t.Fatal("ForKey(\"S0\") returned nil")
	}

	// Stability across sets: the same topology always routes a key the same
	// way (no per-process randomization).
	other, err := shard.New(specsNamed(4, "s%d"))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("stable-%d", i)
		if a, b := set.ForKey(key).Name, other.ForKey(key).Name; a != b {
			t.Fatalf("ForKey(%q) differs across sets: %s vs %s", key, a, b)
		}
	}
}

// TestMergeRouteGoldenMapping pins the post-merge key→shard mapping bit for
// bit, alongside the epoch-0 golden above: merging shard-1 and shard-2 of a
// 4-shard table must redirect exactly the keys that hashed to either source
// onto the single successor — split-tree descent in reverse — and leave every
// other key's placement untouched.
func TestMergeRouteGoldenMapping(t *testing.T) {
	set, err := shard.New(specsNamed(4, "shard-%d"))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rt := set.Router()

	succ, err := set.AddRegion(shard.Spec{
		Name:      "shard-1+shard-2",
		Algorithm: "adaptive",
		Config:    register.Config{F: 1, K: 2, DataLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InstallMergeSuccessor("shard-1", "shard-2", succ); err != nil {
		t.Fatal(err)
	}
	rt.MarkSeeded(succ.Name)

	// Frozen from the epoch-0 golden: keys that mapped to shard-1 or shard-2
	// land on the successor, the rest keep their epoch-0 placement.
	golden := map[string]string{
		"":                    "shard-1+shard-2", // was shard-1
		"user-0":              "shard-3",
		"user-1":              "shard-0",
		"user-42":             "shard-3",
		"key-0":               "shard-1+shard-2", // was shard-1
		"key-1":               "shard-1+shard-2", // was shard-2
		"key-7":               "shard-0",
		"alpha":               "shard-3",
		"beta":                "shard-3",
		"gamma":               "shard-1+shard-2", // was shard-2
		"delta":               "shard-1+shard-2", // was shard-1
		"the-quick-brown-fox": "shard-3",
		"\x00\x01":            "shard-1+shard-2", // was shard-2
		"shard-1":             "shard-1+shard-2", // exact old names descend too
		"shard-2":             "shard-1+shard-2",
	}
	for key, want := range golden {
		if got := set.ForKey(key).Name; got != want {
			t.Errorf("ForKey(%q) = %s, want %s", key, got, want)
		}
	}
}

// TestWritePinSurvivesFlipAndDrain pins the lifecycle edge case of a write
// acquired on an active route that a migration then flips to draining: the
// drain must wait for the pin, and the release must count down cleanly even
// though the route changed state (and even retires) mid-operation.
func TestWritePinSurvivesFlipAndDrain(t *testing.T) {
	set, err := shard.New(specsNamed(2, "s%d"))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rt := set.Router()

	ref, held, err := rt.TryAcquireWrite(7, "s0")
	if err != nil || held {
		t.Fatalf("acquire on active route: held=%v err=%v", held, err)
	}
	succ, err := set.AddRegion(shard.Spec{
		Name: "s0/0", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InstallSuccessors("s0", []*shard.Shard{succ}); err != nil {
		t.Fatal(err)
	}
	none := map[int]bool{}
	if rt.WritesDrained("s0", none) {
		t.Fatal("draining route with a live pin reports drained")
	}
	// Excluding the pinning client (as a crash would) drains immediately.
	if !rt.WritesDrained("s0", map[int]bool{7: true}) {
		t.Fatal("crashed client's pin must not block the drain")
	}
	rt.ReleaseWrite(ref, 7)
	if !rt.WritesDrained("s0", none) {
		t.Fatal("released pin still blocks the drain")
	}

	// A read pinned to the draining route must survive the route retiring
	// mid-operation: release after retirement is clean, and a fresh resolve
	// no longer lands there.
	ref2, fb, err := rt.AcquireRead(9, "s0")
	if err != nil {
		t.Fatal(err)
	}
	if ref2.Shard().Name != "s0/0" || fb == nil || fb.Shard().Name != "s0" {
		t.Fatalf("dual-epoch acquire = %v / %v", ref2.Shard().Name, fb)
	}
	rt.MarkSeeded("s0/0")
	rt.MarkRetired("s0")
	if got := rt.RouteOf("s0").State(); got != shard.RouteRetired {
		t.Fatalf("s0 state = %v", got)
	}
	rt.ReleaseRead(ref2, fb, 9) // must not panic or corrupt pin counts
	if !rt.ReadsDrained("s0", none) || !rt.ReadsDrained("s0/0", none) {
		t.Fatal("pins leaked across retirement")
	}
	if got := set.ForKey("s0").Name; got != "s0/0" {
		t.Fatalf("post-retirement ForKey(s0) = %s", got)
	}
}

// TestMergeInstallValidation exercises the router-level merge error paths.
func TestMergeInstallValidation(t *testing.T) {
	set, err := shard.New(specsNamed(3, "s%d"))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rt := set.Router()
	succ, err := set.AddRegion(shard.Spec{
		Name: "m", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InstallMergeSuccessor("s0", "s0", succ); err == nil {
		t.Fatal("self-merge accepted")
	}
	if _, err := rt.InstallMergeSuccessor("s0", "nope", succ); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := rt.InstallMergeSuccessor("s0", "s1", set.Shard("s2")); err == nil {
		t.Fatal("already-routed successor name accepted")
	}
	epoch, err := rt.InstallMergeSuccessor("s0", "s1", succ)
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("merge installed no epoch")
	}
	// Before the value ordering runs, the child has no lineage parent and
	// nothing counts as pruned.
	if got := rt.RouteOf("m").Parent(); got != "" {
		t.Fatalf("pre-winner parent = %q, want empty", got)
	}
	if pruned := rt.PrunedBranches(); len(pruned) != 0 {
		t.Fatalf("pre-winner pruned branches = %v", pruned)
	}
	// Winner must be one of the parents.
	if err := rt.SetMergeWinner("m", "s2"); err == nil {
		t.Fatal("non-parent winner accepted")
	}
	if err := rt.SetMergeWinner("m", "s1"); err != nil {
		t.Fatal(err)
	}
	if got := rt.RouteOf("m").Parent(); got != "s1" {
		t.Fatalf("parent = %q after SetMergeWinner", got)
	}
	if got := rt.RouteOf("m").Parents(); len(got) != 2 || got[0] != "s0" || got[1] != "s1" {
		t.Fatalf("parents = %v", got)
	}
	// AbortMerge restores both sources and retires the child.
	rt.AbortMerge("s0", "s1")
	if pruned := rt.PrunedBranches(); len(pruned) != 0 {
		t.Fatalf("aborted merge reports pruned branches: %v", pruned)
	}
	for _, name := range []string{"s0", "s1"} {
		if got := rt.RouteOf(name).State(); got != shard.RouteActive {
			t.Fatalf("%s state after abort = %v", name, got)
		}
	}
	if got := rt.RouteOf("m").State(); got != shard.RouteRetired {
		t.Fatalf("child state after abort = %v", got)
	}
	if got := set.ForKey("s0").Name; got != "s0" {
		t.Fatalf("post-abort ForKey(s0) = %s", got)
	}
}

// TestRouterSuccessorLifecycle drives a successor route through the router's
// lifecycle and introspection surface: install, held writes while seeding,
// activation, the name/region/lineage listings reconfiguration and the
// adversary consume, and the rollback of a flip that never activated.
func TestRouterSuccessorLifecycle(t *testing.T) {
	set, err := shard.New(specsNamed(2, "s%d"))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rt := set.Router()

	if got := rt.Epoch(); got != 0 {
		t.Fatalf("fresh epoch = %d", got)
	}
	succ, err := set.AddRegion(shard.Spec{
		Name: "s0/0", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := rt.InstallSuccessors("s0", []*shard.Shard{succ})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("InstallSuccessors epoch = %d", epoch)
	}
	if got := rt.RouteOf("s0/0").InstalledAt(); got != 1 {
		t.Fatalf("InstalledAt = %d", got)
	}
	// A seeding successor holds writes and counts them; activation admits them.
	if _, held, err := rt.TryAcquireWrite(3, "s0"); err != nil || !held {
		t.Fatalf("write admitted to a seeding successor: held=%v err=%v", held, err)
	}
	if rt.HeldWrites() == 0 {
		t.Fatal("held-writes counter did not advance")
	}
	rt.MarkSeeded("s0/0")
	if got := rt.RouteOf("s0/0").State(); got != shard.RouteActive {
		t.Fatalf("seeded route state = %v", got)
	}
	if ref, held, err := rt.TryAcquireWrite(3, "s0"); err != nil || held || ref.Shard().Name != "s0/0" {
		t.Fatalf("write after activation: held=%v err=%v", held, err)
	} else {
		rt.ReleaseWrite(ref, 3)
	}
	// Lifecycle state strings render for every state (they feed reports).
	for _, s := range []shard.RouteState{shard.RouteActive, shard.RouteSeeding, shard.RouteDraining, shard.RouteRetired, shard.RouteState(99)} {
		if s.String() == "" {
			t.Fatalf("empty state string for %v", int(s))
		}
	}

	// The listings see three routes; the split source is no longer a leaf.
	if names := rt.Names(); len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
	if leaves := rt.ActiveLeafNames(); len(leaves) != 2 {
		t.Fatalf("ActiveLeafNames = %v", leaves)
	}
	if leaves := rt.LeafNames(); len(leaves) != 2 {
		t.Fatalf("LeafNames = %v", leaves)
	}
	if shards := rt.Shards(); len(shards) != 3 {
		t.Fatalf("Shards = %v", shards)
	}
	if lin := rt.Lineage("s0/0"); len(lin) != 2 || lin[0] != "s0" {
		t.Fatalf("Lineage(s0/0) = %v", lin)
	}
	if pruned := rt.PrunedBranches(); len(pruned) != 0 {
		t.Fatalf("PrunedBranches = %v", pruned)
	}

	// AbortSuccessors rolls a flip back at the router level.
	succ2, err := set.AddRegion(shard.Spec{
		Name: "s1/0", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.InstallSuccessors("s1", []*shard.Shard{succ2}); err != nil {
		t.Fatal(err)
	}
	rt.AbortSuccessors("s1")
	if got := rt.RouteOf("s1").State(); got != shard.RouteActive {
		t.Fatalf("aborted split left s1 %v", got)
	}
	if got := rt.RouteOf("s1/0").State(); got != shard.RouteRetired {
		t.Fatalf("aborted successor state = %v", got)
	}
	if got := set.ForKey("s1/0").Name; got == "s1/0" {
		t.Fatal("an aborted successor's name still routes to it")
	}
}
