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

// copyFixture copies testdata/<name> into a fresh directory a journal may
// write to.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	fixture, err := filepath.Glob(filepath.Join("testdata", name, "*"))
	if err != nil || len(fixture) == 0 {
		t.Fatalf("fixture %s missing: %v", name, err)
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
	return dir
}

// replaysToTheSchedule replays a fixture of applyAdaptiveSchedule's five
// records and requires the very state the schedule leaves when applied
// directly.
func replaysToTheSchedule(t *testing.T, fixture string) {
	t.Helper()
	replayed := adaptiveCluster(t)
	defer replayed.Close()
	j, err := wal.Open(wal.Config{Dir: copyFixture(t, fixture)})
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
	if !bytes.Equal(encodedObject(t, replayed, 0), encodedObject(t, direct, 0)) {
		t.Fatal("the replayed log and the schedule applied directly leave object 0 in different states")
	}
}

// TestReplaysLogWrittenBeforePiecelessGC replays testdata/adaptive-pr18: the
// journal directory the build before the timestamp-only query and the
// piece-less GC wrote for applyAdaptiveSchedule (commit 723058a, made by
// running this file's schedule there with a journal attached). Every update
// record in it holds its full replica, as all did before update records were
// trimmed; the record layout is the same, so the log replays into the very
// state the schedule produces when applied directly.
func TestReplaysLogWrittenBeforePiecelessGC(t *testing.T) {
	replaysToTheSchedule(t, "adaptive-pr18")
}

// TestWritesAndReplaysTrimmedLog pins what this build journals for
// applyAdaptiveSchedule, testdata/adaptive-pr21 (made by this test's own
// steps at the commit that introduced trimmed update records): the update
// into Vp and the seed update without their full replicas, the update into Vf
// whole, the two GCs as ever. It replays to the same state as the whole
// records of adaptive-pr18 do.
func TestWritesAndReplaysTrimmedLog(t *testing.T) {
	replaysToTheSchedule(t, "adaptive-pr21")

	fresh := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	journaled := adaptiveCluster(t)
	j.Attach(journaled)
	applyAdaptiveSchedule(t, journaled)
	journaled.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range findSegments(t, fresh) {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "adaptive-pr21", filepath.Base(seg)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: this build's log (%d bytes) differs from the fixture's (%d bytes, %v)", filepath.Base(seg), len(got), len(want), err)
		}
		whole, err := os.ReadFile(filepath.Join("testdata", "adaptive-pr18", filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		// Two of the three update records lose a replica of two chunks each.
		if saved, want := len(whole)-len(got), 2*2*register.ChunkWireSize(register.Chunk{Block: erasure.Block{Data: make([]byte, 16)}}); saved != want {
			t.Fatalf("trimming saved %d bytes of the whole-record log's %d, want %d", saved, len(whole), want)
		}
	}
}
