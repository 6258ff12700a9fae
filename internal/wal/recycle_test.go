package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"spacebounds/internal/wal"
)

// Segment recycling: a snapshot keeps the segment it froze as the journal's
// spare, and the next rotation writes over that file from offset 0. These
// tests hold a recycled file's old tail to what the framing comment in
// record.go promises: it ends the segment's valid data, replay and accounting
// never see it, and it never outlives a reopen of the active segment.

// snapshot takes a snapshot and checks the directory holds at most one spare.
func (n *node) snapshot(t testing.TB, dir string) {
	t.Helper()
	if err := n.j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	spares := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			spares++
		}
	}
	if spares > 1 {
		t.Fatalf("%d spare files after a snapshot, want at most one", spares)
	}
}

// recycledNode writes big values into the first segment, snapshots, writes
// one value into the second and snapshots again, so that the third segment is
// the first one's file, and writes small values into it: fewer records than
// the file holds, so an older generation's records follow them. It returns
// the node, attached, with the third segment active.
func recycledNode(t testing.TB, dir string, big, small int) *node {
	t.Helper()
	n, _ := openNode(t, dir, wal.Config{})
	for i := 0; i < big; i++ {
		n.write(t, 1, fmt.Sprintf("old-%d", i))
	}
	n.snapshot(t, dir)
	n.write(t, 1, "between")
	n.snapshot(t, dir)
	for i := 0; i < small; i++ {
		n.write(t, 2, fmt.Sprintf("new-%d", i))
	}
	return n
}

// activeSize is the size of the one segment file in dir.
func activeSize(t *testing.T, dir string) int64 {
	t.Helper()
	segs := findSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestThirdSegmentIsTheFirstSegmentsFile(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	defer n.close(t)
	var files []os.FileInfo
	for i := 0; i < 4; i++ {
		n.write(t, 1, fmt.Sprintf("gen-%d", i))
		segs := findSegments(t, dir)
		if len(segs) != 1 {
			t.Fatalf("segments %v, want one", segs)
		}
		info, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, info)
		n.snapshot(t, dir)
	}
	// Two files alternate: the first and second segments are new, every
	// later one is the file of the segment two rotations back.
	if os.SameFile(files[0], files[1]) {
		t.Fatal("the second segment is the first one's file")
	}
	for i := 2; i < len(files); i++ {
		if !os.SameFile(files[i], files[i-2]) {
			t.Errorf("segment %d (%s) is not the file of segment %d (%s)", i+1, files[i].Name(), i-1, files[i-2].Name())
		}
	}
}

// TestRecycledSegmentReplaysToTheLiveStates: a recycled active segment that
// holds fewer records than its file reopens to the byte-exact live states,
// with every block memory of its own, counts only its own records, and is cut
// at its valid length — so that what is written after the reopen survives the
// next one.
func TestRecycledSegmentReplaysToTheLiveStates(t *testing.T) {
	dir := t.TempDir()
	n := recycledNode(t, dir, 12, 2)
	logBytes := n.j.LogBytes()
	if size := activeSize(t, dir); size <= logBytes {
		t.Fatalf("the recycled segment's file is %d bytes for %d bytes of records: no old tail", size, logBytes)
	}
	want := make([][]byte, n.c.N())
	for obj := range want {
		want[obj] = encodedObject(t, n.c, obj)
	}
	wantBlocks := objectBlocks(t, n.c)
	n.close(t)

	n2, stats := openNode(t, dir, wal.Config{})
	if stats.Applied == 0 {
		t.Fatalf("replay applied nothing: %+v", stats)
	}
	for obj := range want {
		if got := encodedObject(t, n2.c, obj); !bytes.Equal(got, want[obj]) {
			t.Errorf("object %d replayed to %x, the live state was %x", obj, got, want[obj])
		}
	}
	for obj, blocks := range objectBlocks(t, n2.c) {
		if len(blocks) != len(wantBlocks[obj]) {
			t.Fatalf("object %d holds %d blocks, the live object %d", obj, len(blocks), len(wantBlocks[obj]))
		}
		for _, b := range blocks {
			if cap(b.Data) != len(b.Data) {
				t.Errorf("object %d holds block %d in %d bytes of memory of capacity %d", obj, b.Index, len(b.Data), cap(b.Data))
			}
		}
	}
	if got, sum := n2.j.LogBytes(), n2.j.RecomputedLogBytes(); got != logBytes || sum != logBytes {
		t.Fatalf("reopened journal counts %d log bytes (per-object sum %d), the one that wrote them %d", got, sum, logBytes)
	}
	if size := activeSize(t, dir); size != logBytes {
		t.Fatalf("reopened active segment is %d bytes, its records %d: the old tail was kept", size, logBytes)
	}

	n2.write(t, 3, "reopened")
	n2.close(t)
	n3, _ := openNode(t, dir, wal.Config{})
	defer n3.close(t)
	wantValue(t, n3.read(t, 4), "reopened")
}

// staleMoveNode journals two move records, snapshots, journals a third,
// snapshots again, and writes over the first segment's file — now the third
// segment — one record of exactly the size of the first segment's first.
func staleMoveNode(t testing.TB, dir string) *node {
	t.Helper()
	n, _ := openNode(t, dir, wal.Config{})
	n.j.RecordMove(1, []byte("aaaa"))
	n.j.RecordMove(5, []byte("stale"))
	n.snapshot(t, dir)
	n.j.RecordMove(5, []byte("fresh"))
	n.snapshot(t, dir)
	n.j.RecordMove(1, []byte("bbbb"))
	return n
}

// TestStaleMoveInOldTailIsNotReturned: the first segment's second record is a
// move record; the third segment, its file, is written over with one record
// of exactly the first one's size, so the stale move record follows whole and
// checksummed. Only its sequence number, below the segment's name, ends the
// valid data before it.
func TestStaleMoveInOldTailIsNotReturned(t *testing.T) {
	dir := t.TempDir()
	n := staleMoveNode(t, dir)
	n.close(t)

	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := map[int]string{}
	for _, m := range j.Moves() {
		got[m.ID] = string(m.Payload)
	}
	if got[1] != "bbbb" || got[5] != "fresh" || len(got) != 2 {
		t.Fatalf("Moves() = %v, want 1:bbbb 5:fresh", got)
	}
}

// TestFrozenSegmentCutShortIsRefused: a crash between a rotation and the
// adoption of its snapshot leaves the frozen segment — here a recycled one —
// beside the new active one. Its valid data may end before its file does only
// where the next segment starts; one record short of that is corruption.
func TestFrozenSegmentCutShortIsRefused(t *testing.T) {
	dir := t.TempDir()
	n := recycledNode(t, dir, 12, 2)
	frozen := findSegments(t, dir)[0]
	raw, err := os.ReadFile(frozen)
	if err != nil {
		t.Fatal(err)
	}
	validLen := n.j.LogBytes()
	n.snapshot(t, dir)
	n.write(t, 1, "later")
	n.close(t)

	// The last record of the frozen segment's own data fails its checksum.
	raw[validLen-1] ^= 0xff
	if err := os.WriteFile(frozen, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := wal.Open(wal.Config{Dir: dir})
	if err == nil {
		j.Close()
		t.Fatal("Open accepted a frozen segment that ends one record short of the next one")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open: %v, want ErrCorrupt", err)
	}
}
