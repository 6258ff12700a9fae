package wal_test

import (
	"bytes"
	"errors"
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
	chunk := adaptiveChunk
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

// adaptiveChunk is piece index of the write stamped ⟨num, client⟩ as the
// fixtures' schedules build it: 16 bytes, D/k of adaptiveCluster's register.
func adaptiveChunk(num, client, index int) register.Chunk {
	return register.Chunk{
		TS:     register.Timestamp{Num: num, Client: client},
		Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(16*num + client)}, 16)},
		Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
	}
}

// applyPieceFirstSchedule applies, to object 0, what two contended piece-first
// writes and their stragglers send it, and checks each answer: eight RMWs, of
// which three change nothing — the update that needs a replica it does not
// carry, and two an object has applied before. It returns how many did change
// the object.
func applyPieceFirstSchedule(t *testing.T, c *dsys.Cluster) (mutating int) {
	t.Helper()
	update := func(kind string, num, client int, withReplica bool) dsys.RMW {
		var w register.WireWriter
		w.Int(2)
		w.TS(register.Timestamp{Num: num, Client: client})
		w.TS(register.ZeroTS)
		w.Chunk(adaptiveChunk(num, client, 1))
		if withReplica {
			w.Chunks([]register.Chunk{adaptiveChunk(num, client, 1), adaptiveChunk(num, client, 2)})
		} else {
			w.Chunks(nil)
		}
		rmw, err := register.DecodeRMW(dsys.Envelope{Kind: kind, Payload: w.Finish()})
		if err != nil {
			t.Fatal(err)
		}
		return rmw
	}
	gc := func(num, client int, withPiece bool) dsys.RMW {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: num, Client: client})
		if withPiece {
			w.Chunk(adaptiveChunk(num, client, 1))
		} else {
			w.Chunk(register.Chunk{})
		}
		rmw, err := register.DecodeRMW(dsys.Envelope{Kind: "adaptive.gc", Payload: w.Finish()})
		if err != nil {
			t.Fatal(err)
		}
		return rmw
	}
	for i, st := range []struct {
		what   string
		rmw    dsys.RMW
		answer []byte // nil for a GC
		record bool
	}{
		{"a piece-only update finds room in Vp", update("adaptive.update", 2, 1, false), []byte{1, 1}, true},
		{"the next finds Vp full and needs the replica", update("adaptive.update", 3, 2, false), []byte{0, 0, 1}, false},
		{"its follow-up lands in Vf", update("adaptive.update", 3, 2, true), []byte{1, 0}, true},
		{"the piece-only update again, late: held in Vf", update("adaptive.update", 3, 2, false), []byte{1, 0}, false},
		{"the GC cuts the replica down to the piece", gc(3, 2, true), nil, true},
		{"a follow-up finds room in Vp", update("adaptive.seedupdate", 4, 3, true), []byte{1, 1}, true},
		{"its piece-only update, late: held in Vp", update("adaptive.seedupdate", 4, 3, false), []byte{1, 1}, false},
		{"a GC without a piece", gc(4, 3, false), nil, true},
	} {
		resp, err := c.ApplyOne(0, st.rmw)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, st.what, err)
		}
		if st.answer != nil {
			kind, _ := register.KindOf(st.rmw)
			if got, err := register.EncodeResponse(kind, resp); err != nil || !bytes.Equal(got, st.answer) {
				t.Fatalf("step %d (%s): answered % x (%v), want % x", i, st.what, got, err, st.answer)
			}
		}
		if st.record {
			mutating++
		}
	}
	return mutating
}

// TestWritesAndReplaysPieceFirstLog pins what this build journals for
// applyPieceFirstSchedule, testdata/adaptive-pr23 (made by this test's own
// steps at the commit that made the update round piece-first): five records
// for eight RMWs. The update that answered NeedFull and the two duplicates
// changed nothing and left no record; the follow-up that went into Vf is there
// whole, the one that found room in Vp without its replica. The record layout
// is that of adaptive-pr21. Replayed, the log rebuilds the state the schedule
// leaves when applied directly.
func TestWritesAndReplaysPieceFirstLog(t *testing.T) {
	fresh := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	journaled := adaptiveCluster(t)
	defer journaled.Close()
	j.Attach(journaled)
	records := applyPieceFirstSchedule(t, journaled)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segments := findSegments(t, fresh)
	if len(segments) != 1 {
		t.Fatalf("the schedule was journaled into %d segments", len(segments))
	}
	got, err := os.ReadFile(segments[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "adaptive-pr23", filepath.Base(segments[0])))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("this build's log (%d bytes) differs from the fixture's (%d bytes, %v)", len(got), len(want), err)
	}
	// Two update records without a replica (one of them a seed update's), one
	// with, and two GCs, one of them with its piece.
	if wantLen := 2*(updateRecordOverhead+16) + len("seed") + (updateRecordOverhead + 16 + 2*(chunkHeader+16)) + 2*gcRecordOverhead + 16; len(got) != wantLen {
		t.Errorf("the log is %d bytes, want %d", len(got), wantLen)
	}

	replayed := adaptiveCluster(t)
	defer replayed.Close()
	j2, err := wal.Open(wal.Config{Dir: copyFixture(t, "adaptive-pr23")})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	stats, err := j2.Replay(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != records || records != 5 {
		t.Fatalf("replay applied %d records, the schedule journaled %d, want 5: %+v", stats.Applied, records, stats)
	}
	if !bytes.Equal(encodedObject(t, replayed, 0), encodedObject(t, journaled, 0)) {
		t.Fatal("the replayed log and the schedule applied directly leave object 0 in different states")
	}
}

// TestReplaysDuplicateSeedUpdateRecordedBeforePieceFirst: builds before the
// piece-first round counted and journaled a re-driven seed update that its
// duplicate check had turned into a no-op. Such a log — hand-built here, two
// adaptive.seedupdate records of one seed for one object — must still replay:
// the second record changes nothing now as it changed nothing then, and is not
// the divergence an update that needs its replica would be.
func TestReplaysDuplicateSeedUpdateRecordedBeforePieceFirst(t *testing.T) {
	seed := func() dsys.RMW {
		var w register.WireWriter
		w.Int(2)
		w.TS(register.SeedTS)
		w.TS(register.ZeroTS)
		w.Chunk(adaptiveChunk(register.SeedTS.Num, register.SeedTS.Client, 1))
		w.Chunks(nil)
		rmw, err := register.DecodeRMW(dsys.Envelope{Kind: "adaptive.seedupdate", Payload: w.Finish()})
		if err != nil {
			t.Fatal(err)
		}
		return rmw
	}
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j.RecordApply(0, seed())
	j.RecordApply(0, seed())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	want := adaptiveCluster(t)
	defer want.Close()
	if _, err := want.ApplyOne(0, seed()); err != nil {
		t.Fatal(err)
	}
	replayed := adaptiveCluster(t)
	defer replayed.Close()
	j2, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	stats, err := j2.Replay(replayed)
	if err != nil || errors.Is(err, dsys.ErrApplyRefused) {
		t.Fatalf("replay of a duplicate seed update: %v (%+v)", err, stats)
	}
	if stats.Applied != 2 {
		t.Fatalf("replay went through %d of the log's 2 records: %+v", stats.Applied, stats)
	}
	if !bytes.Equal(encodedObject(t, replayed, 0), encodedObject(t, want, 0)) {
		t.Fatal("the duplicate record changed the object")
	}
}
