package wal_test

import (
	"bytes"
	"errors"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// Sizes of the records an adaptive write journals, beyond the code-block bytes
// they hold. A record is a frame header (8), the body's type and sequence
// number (9) and an envelope: 32 bytes and the kind's name around the payload.
const (
	recordOverhead = 8 + 9 + 32
	// An update's payload is k, two timestamps, the piece's chunk header (52)
	// and the replica's chunk count; a GC's is a timestamp and a chunk header.
	updateRecordOverhead = recordOverhead + len("adaptive.update") + 8 + 16 + 16 + 52 + 4
	gcRecordOverhead     = recordOverhead + len("adaptive.gc") + 16 + 52
	chunkHeader          = 52
)

// logBytesPerObject is the journal's log footprint by base object.
func logBytesPerObject(j *wal.Journal) map[int]int {
	out := map[int]int{}
	for _, b := range j.DurableBlocks() {
		if b.Location.Kind == storagecost.DurableLog {
			out[b.Location.ID] += b.Bits / 8
		}
	}
	return out
}

// TestQuiescentWriteJournalsOnlyWhatObjectsKept: at f = 1, k = 2, D = 4 KiB
// one uncontended write journals, on each of its n objects, an update record
// holding the object's piece and a GC record holding none — n·D/k bytes of
// value and a fixed 288 bytes of framing, timestamps and chunk headers per
// object. No full replica (another n·D) is there: no object's Vf took one,
// and no update carried one.
func TestQuiescentWriteJournalsOnlyWhatObjectsKept(t *testing.T) {
	const f, k, dataLen = 1, 2, 4 << 10
	const n = 2*f + k
	reg, err := adaptive.New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	c := dsys.NewCluster(states, dsys.WithLiveMode())
	defer c.Close()
	j, err := wal.Open(wal.Config{Dir: t.TempDir(), SyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Attach(c)

	const perWrite = n*(dataLen/k) + n*(updateRecordOverhead+gcRecordOverhead)
	for seq := 1; seq <= 2; seq++ {
		before := j.LogBytes()
		if err := c.RunScoped(1, 0, n, func(h *dsys.ClientHandle) error {
			return reg.Write(h, value.Sequenced(1, seq, dataLen))
		}); err != nil {
			t.Fatal(err)
		}
		if got := int(j.LogBytes() - before); got != perWrite {
			t.Errorf("write %d journaled %d bytes, want n·D/k + n·(%d + %d) = %d (diff %+d); the replicas would be another %d",
				seq, got, updateRecordOverhead, gcRecordOverhead, perWrite, got-perWrite, n*(dataLen+k*chunkHeader))
		}
	}
}

// adaptiveUpdate is the update object obj receives from write ⟨num, client⟩
// at k = 2 and D/k = pieceLen — with its full replica unless trimmed — built
// through the codec (the provider's RMW types are unexported).
func adaptiveUpdate(t testing.TB, obj, num, client, pieceLen int, trimmed bool) dsys.RMW {
	t.Helper()
	piece := func(index int) register.Chunk {
		return register.Chunk{
			TS:     register.Timestamp{Num: num, Client: client},
			Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(16*num + client)}, pieceLen)},
			Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
		}
	}
	var w register.WireWriter
	w.Int(2)
	w.TS(register.Timestamp{Num: num, Client: client})
	w.TS(register.ZeroTS)
	w.Chunk(piece(obj + 1))
	if trimmed {
		w.Chunks(nil)
	} else {
		w.Chunks([]register.Chunk{piece(1), piece(2)})
	}
	rmw, err := register.DecodeRMW(dsys.Envelope{Kind: "adaptive.update", Payload: w.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	return rmw
}

func contendedCluster(t *testing.T) *dsys.Cluster {
	t.Helper()
	reg, err := adaptive.New(register.Config{F: 1, K: 2, DataLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(128))
	if err != nil {
		t.Fatal(err)
	}
	return dsys.NewCluster(states, dsys.WithLiveMode())
}

func encodedObject(t testing.TB, c *dsys.Cluster, obj int) (out []byte) {
	t.Helper()
	var err error
	if rerr := c.ReadObjectState(obj, func(s dsys.State) { _, out, err = register.EncodeState(s) }); rerr != nil || err != nil {
		t.Fatal(rerr, err)
	}
	return out
}

// TestContendedUpdatesJournalTheReplicaOnlyWhereStored: four writers' updates
// reach four objects with no GC between them, each object seeing a different
// number of them and so a different mix of outcomes — into Vp, into Vf, over an
// older Vf, refused by a newer one. A record holds the full replica for
// exactly the applies that answered Stored && !ToVp; and the journal, closed,
// reopened and replayed into a fresh cluster, rebuilds every object's state to
// the byte.
func TestContendedUpdatesJournalTheReplicaOnlyWhereStored(t *testing.T) {
	dir := t.TempDir()
	live := contendedCluster(t)
	defer live.Close()
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j.Attach(live)

	const (
		trimmedRecord = updateRecordOverhead + 64
		wholeRecord   = trimmedRecord + 2*(chunkHeader+64)
	)
	writes := [][2]int{{3, 1}, {5, 2}, {4, 3}, {7, 4}} // ⟨num, client⟩, in arrival order
	whole := 0
	for obj := 0; obj < live.N(); obj++ {
		for _, w := range writes[:obj+1] {
			before := logBytesPerObject(j)[obj]
			resp, err := live.ApplyOne(obj, adaptiveUpdate(t, obj, w[0], w[1], 64, false))
			if err != nil {
				t.Fatal(err)
			}
			flags, err := register.EncodeResponse("adaptive.update", resp)
			if err != nil {
				t.Fatal(err)
			}
			stored, toVp := flags[0] == 1, flags[1] == 1
			want := trimmedRecord
			if stored && !toVp {
				want = wholeRecord
				whole++
			}
			if got := logBytesPerObject(j)[obj] - before; got != want {
				t.Errorf("object %d, write %v (stored %v, into Vp %v): record of %d bytes, want %d", obj, w, stored, toVp, got, want)
			}
		}
	}
	if whole != 4 { // object 1: one into Vf; object 2: one, one refused; object 3: two
		t.Errorf("%d updates went into Vf, want 4: the schedule does not fill Vp as meant", whole)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := contendedCluster(t)
	defer replayed.Close()
	j2, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := j2.Replay(replayed); err != nil {
		t.Fatal(err)
	}
	for obj := 0; obj < live.N(); obj++ {
		if !bytes.Equal(encodedObject(t, replayed, obj), encodedObject(t, live, obj)) {
			t.Errorf("object %d: the replayed state differs from the live one", obj)
		}
	}
}

// TestReplayRefusesTrimmedUpdateOnFullVp: a log whose second record is an
// update without a replica, hand-built for an object whose Vp the first record
// filled. No journal writes that — live, such an update answers that it needs
// the replica, changes nothing and is not recorded; the follow-up that goes
// into Vf is, whole — so replay stops with the typed error, and the object
// holds what the first record left: no empty replica.
func TestReplayRefusesTrimmedUpdateOnFullVp(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := adaptiveUpdate(t, 0, 3, 1, 64, false)
	j.RecordApply(0, first)
	j.RecordApply(0, adaptiveUpdate(t, 0, 5, 2, 64, true))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	want := contendedCluster(t)
	defer want.Close()
	if _, err := want.ApplyOne(0, first); err != nil {
		t.Fatal(err)
	}
	replayed := contendedCluster(t)
	defer replayed.Close()
	j2, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	stats, err := j2.Replay(replayed)
	if !errors.Is(err, dsys.ErrApplyRefused) {
		t.Fatalf("replay returned %v (%+v), want dsys.ErrApplyRefused", err, stats)
	}
	if !bytes.Equal(encodedObject(t, replayed, 0), encodedObject(t, want, 0)) {
		t.Fatal("the refused record changed the object")
	}
}
