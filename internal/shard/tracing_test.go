package shard_test

import (
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/shard"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// TestSetTracing builds a set over a cluster with a fully-sampled tracer and
// checks the two properties the layer owns: every operation roots an op span
// labeled by its shard, and the cluster's round spans carry the shard name
// (not a raw object base) because New named every region.
func TestSetTracing(t *testing.T) {
	tr := trace.New(trace.Options{Sample: 1, Proc: "shard-test"})
	set, err := shard.New(adaptiveSpecs(2), dsys.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Cluster().Tracer() != tr {
		t.Fatal("the cluster does not hold the tracer it was built with")
	}

	payload := value.FromBytes(make([]byte, 64))
	for i := 0; i < 4; i++ {
		if err := set.WriteValue(i, set.Shard("s0"), payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := set.ReadValue(5, set.Shard("s1")); err != nil {
		t.Fatal(err)
	}

	ops, rounds := 0, 0
	shards := make(map[string]bool)
	for _, s := range tr.Snapshot() {
		switch s.Stage {
		case trace.StageOp:
			ops++
			shards[s.Shard] = true
			if s.Parent != 0 {
				t.Errorf("op span %016x has parent %016x, want root", s.ID, s.Parent)
			}
		case trace.StageRound:
			rounds++
			if s.Shard != "s0" && s.Shard != "s1" {
				t.Errorf("round span labeled %q, want a shard name", s.Shard)
			}
		}
	}
	if ops != 5 {
		t.Errorf("recorded %d op spans, want 5", ops)
	}
	if rounds < 5 {
		t.Errorf("recorded %d round spans, want at least one per op", rounds)
	}
	if !shards["s0"] || !shards["s1"] {
		t.Errorf("op spans labeled %v, want both s0 and s1", shards)
	}
}

// TestSetTracingNamesLateRegions verifies a region added to a traced set is
// labeled as it appears, mirroring the metrics path.
func TestSetTracingNamesLateRegions(t *testing.T) {
	tr := trace.New(trace.Options{Sample: 1})
	set, err := shard.New(adaptiveSpecs(1), dsys.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	late := adaptiveSpecs(2)[1] // "s1", distinct from the seed shard
	sh, err := set.AddRegion(late)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.WriteValue(1, sh, value.FromBytes(make([]byte, 64))); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Snapshot() {
		if s.Stage == trace.StageRound && s.Shard == "s1" {
			return
		}
	}
	t.Fatal("no round span labeled by the late-added region's name")
}
