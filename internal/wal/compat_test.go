package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// adaptiveCluster is a fresh adaptive register (f = 1, k = 2) in live mode.
func adaptiveCluster(t *testing.T) *dsys.Cluster {
	t.Helper()
	reg, err := adaptive.New(register.Config{F: 1, K: 2, DataLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(32))
	if err != nil {
		t.Fatal(err)
	}
	return dsys.NewCluster(states, dsys.WithLiveMode())
}

// applyAdaptiveSchedule applies, to object 0, a schedule that goes through
// every mutating adaptive kind and both GC outcomes: an update into Vp, one
// into Vf, a GC that shrinks that replica to its piece, a seed update, and a
// GC that drops everything older.
func applyAdaptiveSchedule(t *testing.T, c *dsys.Cluster) {
	t.Helper()
	chunk := func(num, client, index int) register.Chunk {
		return register.Chunk{
			TS:     register.Timestamp{Num: num, Client: client},
			Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(16*num + client)}, 16)},
			Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
		}
	}
	update := func(num, client int) []byte {
		var w register.WireWriter
		w.Int(2)
		w.TS(register.Timestamp{Num: num, Client: client})
		w.TS(register.ZeroTS)
		w.Chunk(chunk(num, client, 1))
		w.Chunks([]register.Chunk{chunk(num, client, 1), chunk(num, client, 2)})
		return w.Finish()
	}
	gc := func(num, client int) []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: num, Client: client})
		w.Chunk(chunk(num, client, 1))
		return w.Finish()
	}
	for i, st := range []struct {
		kind    string
		payload []byte
	}{
		{"adaptive.update", update(2, 1)},
		{"adaptive.update", update(3, 2)},
		{"adaptive.gc", gc(3, 2)},
		{"adaptive.seedupdate", update(4, 3)},
		{"adaptive.gc", gc(4, 3)},
	} {
		rmw, err := register.DecodeRMW(dsys.Envelope{Kind: st.kind, Payload: st.payload})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := c.ApplyOne(0, rmw); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestReplaysLogWrittenBeforePiecelessGC replays testdata/adaptive-pr18: the
// journal directory the build before the timestamp-only query and the
// piece-less GC wrote for applyAdaptiveSchedule (commit 723058a, made by
// running this file's schedule there with a journal attached). The record
// layouts did not change, so the log replays into the very state the
// schedule produces when applied directly.
func TestReplaysLogWrittenBeforePiecelessGC(t *testing.T) {
	dir := t.TempDir()
	fixture, err := filepath.Glob(filepath.Join("testdata", "adaptive-pr18", "*"))
	if err != nil || len(fixture) == 0 {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, path := range fixture {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	replayed := adaptiveCluster(t)
	defer replayed.Close()
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	stats, err := j.Replay(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 5 || j.SkippedUnknownRMWs() != 0 {
		t.Fatalf("replay applied %d of the fixture's 5 records: %+v", stats.Applied, stats)
	}

	direct := adaptiveCluster(t)
	defer direct.Close()
	applyAdaptiveSchedule(t, direct)
	encoded := func(c *dsys.Cluster) (out []byte) {
		if err := c.ReadObjectState(0, func(s dsys.State) {
			if _, out, err = register.EncodeState(s); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(encoded(replayed), encoded(direct)) {
		t.Fatal("the replayed log and the schedule applied directly leave object 0 in different states")
	}

	// And the log this build writes for the same schedule is the same bytes.
	fresh := t.TempDir()
	j2, err := wal.Open(wal.Config{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	journaled := adaptiveCluster(t)
	j2.Attach(journaled)
	applyAdaptiveSchedule(t, journaled)
	journaled.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range findSegments(t, fresh) {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "adaptive-pr18", filepath.Base(seg)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: this build's log differs from the fixture's (%v)", filepath.Base(seg), err)
		}
	}
}
