package wal_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

const dataLen = 8

// node bundles one "process": a register emulation, its live cluster, and
// the journal recording it.
type node struct {
	reg register.Register
	c   *dsys.Cluster
	j   *wal.Journal
}

// openNode builds a fresh cluster from initial states, replays the journal
// directory into it, and attaches the journal — the full recovery path a
// restarting process runs. opts are added to the cluster's live mode.
func openNode(t testing.TB, dir string, cfg wal.Config, opts ...dsys.Option) (*node, wal.ReplayStats) {
	t.Helper()
	reg, err := safereg.NewABD(register.Config{F: 1, K: 1, DataLen: dataLen})
	if err != nil {
		t.Fatalf("safereg.NewABD: %v", err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatalf("InitialStates: %v", err)
	}
	c := dsys.NewCluster(states, append([]dsys.Option{dsys.WithLiveMode()}, opts...)...)
	cfg.Dir = dir
	j, err := wal.Open(cfg)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	stats, err := j.Replay(c)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	j.Attach(c)
	return &node{reg: reg, c: c, j: j}, stats
}

func (n *node) close(t *testing.T) {
	t.Helper()
	n.c.Close()
	if err := n.j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
}

func (n *node) write(t testing.TB, client int, s string) {
	t.Helper()
	v := value.FromString(s, dataLen)
	if err := n.c.RunScoped(client, 0, n.c.N(), func(h *dsys.ClientHandle) error {
		return n.reg.Write(h, v)
	}); err != nil {
		t.Fatalf("write %q: %v", s, err)
	}
}

func (n *node) read(t *testing.T, client int) value.Value {
	t.Helper()
	var out value.Value
	if err := n.c.RunScoped(client, 0, n.c.N(), func(h *dsys.ClientHandle) error {
		v, err := n.reg.Read(h)
		out = v
		return err
	}); err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

func wantValue(t *testing.T, got value.Value, s string) {
	t.Helper()
	if want := value.FromString(s, dataLen); !got.Equal(want) {
		t.Fatalf("read %v, want %v", got, want)
	}
}

func TestReplayRestoresWrites(t *testing.T) {
	dir := t.TempDir()
	n, stats := openNode(t, dir, wal.Config{})
	if stats.Records != 0 || stats.Applied != 0 {
		t.Fatalf("fresh journal replayed %+v", stats)
	}
	n.write(t, 1, "alpha")
	n.write(t, 1, "beta")
	n.write(t, 2, "gamma")
	n.close(t)

	// A fresh "process": empty cluster, same directory.
	n2, stats := openNode(t, dir, wal.Config{})
	defer n2.close(t)
	if stats.Applied == 0 {
		t.Fatalf("replay applied nothing: %+v", stats)
	}
	wantValue(t, n2.read(t, 3), "gamma")
}

func TestReopenWithoutCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{SyncEvery: 1})
	n.write(t, 1, "durable")
	// No Close: simulate a crash by abandoning the journal (the file was
	// fsynced by the SyncEvery=1 policy, so the record must survive). Its
	// snapshotter goroutine is stopped only once the test is done with the
	// directory.
	n.c.Close()
	t.Cleanup(func() { _ = n.j.Close() })

	n2, stats := openNode(t, dir, wal.Config{})
	defer n2.close(t)
	if stats.Applied == 0 {
		t.Fatalf("replay applied nothing: %+v", stats)
	}
	wantValue(t, n2.read(t, 2), "durable")
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	n.write(t, 1, "first")
	n.write(t, 1, "second")
	n.close(t)

	// Append half a frame to the active segment: a crash mid-append.
	seg := findSegments(t, dir)
	f, err := os.OpenFile(seg[len(seg)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	n2, stats := openNode(t, dir, wal.Config{})
	if stats.Applied == 0 {
		t.Fatalf("replay applied nothing: %+v", stats)
	}
	wantValue(t, n2.read(t, 2), "second")
	// The torn bytes are gone: appending works and a further reopen is clean.
	n2.write(t, 1, "third")
	n2.close(t)
	n3, _ := openNode(t, dir, wal.Config{})
	defer n3.close(t)
	wantValue(t, n3.read(t, 2), "third")
}

func TestCorruptRecordIsDetected(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	n.write(t, 1, "payload")
	n.close(t)

	seg := findSegments(t, dir)
	raw, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file: the CRC must catch it, and the
	// journal must truncate everything from the damaged frame on.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(seg[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	n2, _ := openNode(t, dir, wal.Config{})
	defer n2.close(t)
	// No assertion on the value — what matters is that Open and Replay do
	// not panic and the prefix before the corruption replays cleanly.
}

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	for i, s := range []string{"one", "two", "three", "four"} {
		n.write(t, i+1, s)
	}
	logBefore := n.j.LogBytes()
	if logBefore == 0 {
		t.Fatal("no log bytes before snapshot")
	}
	if err := n.j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n.j.SnapshotBytes() == 0 {
		t.Fatal("no snapshot bytes after snapshot")
	}
	if got := n.j.LogBytes(); got >= logBefore {
		t.Fatalf("log not truncated: %d >= %d bytes", got, logBefore)
	}
	// Post-snapshot writes land in the fresh segment.
	n.write(t, 9, "five")
	n.close(t)

	n2, stats := openNode(t, dir, wal.Config{})
	defer n2.close(t)
	if stats.SnapshotObjects == 0 {
		t.Fatalf("snapshot restored no objects: %+v", stats)
	}
	wantValue(t, n2.read(t, 10), "five")
}

// TestCrashBetweenSnapshotAndTruncationRecovers: a crash after a snapshot's
// rename and before the removal of the segments it covers leaves the frozen
// segment beside the active one. Its records are at most the snapshot's
// boundary and must be deduplicated, whether the segment is a whole new file
// or a recycled one whose own records an older generation's follow.
func TestCrashBetweenSnapshotAndTruncationRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T, dir string) *node
	}{
		{"whole", func(t *testing.T, dir string) *node {
			n, _ := openNode(t, dir, wal.Config{})
			n.write(t, 1, "kept")
			return n
		}},
		{"recycled", func(t *testing.T, dir string) *node { return recycledNode(t, dir, 12, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := tc.open(t, dir)
			segs := findSegments(t, dir)
			if len(segs) != 1 {
				t.Fatalf("segments %v, want one", segs)
			}
			frozen, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			n.snapshot(t, dir)
			n.write(t, 1, "later")
			n.close(t)

			if err := os.WriteFile(segs[0], frozen, 0o644); err != nil {
				t.Fatal(err)
			}
			n2, stats := openNode(t, dir, wal.Config{})
			defer n2.close(t)
			if stats.Skipped == 0 {
				t.Fatalf("the frozen segment's records were not deduplicated: %+v", stats)
			}
			wantValue(t, n2.read(t, 2), "later")
		})
	}
}

func TestSnapshotDedupAcrossReplay(t *testing.T) {
	// Snapshot, write more, crash, replay: the snapshot-covered records must
	// not double-apply. ABD applies are idempotent-by-timestamp so a double
	// apply would not corrupt values — instead, assert the dedup directly via
	// the replay stats against a journal whose pre-snapshot segments we put
	// back by hand.
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	n.write(t, 1, "pre")
	segs := findSegments(t, dir)
	preSeg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	preName := filepath.Base(segs[0])
	if err := n.j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	n.write(t, 1, "post")
	n.close(t)

	// Put the deleted pre-snapshot segment back.
	if err := os.WriteFile(filepath.Join(dir, preName), preSeg, 0o644); err != nil {
		t.Fatal(err)
	}
	n2, stats := openNode(t, dir, wal.Config{})
	defer n2.close(t)
	if stats.Skipped == 0 {
		t.Fatalf("expected snapshot dedup to skip resurrected records: %+v", stats)
	}
	wantValue(t, n2.read(t, 2), "post")
}

func TestReplayObjectRebuildsFromDisk(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	defer n.close(t)
	n.write(t, 1, "before")
	const victim = 0
	if err := n.c.CrashObject(victim); err != nil {
		t.Fatalf("CrashObject: %v", err)
	}
	n.write(t, 1, "during") // quorum 2 of 3 still forms

	states, err := n.reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := n.j.ReplayObject(n.c, victim, states[victim])
	if err != nil {
		t.Fatalf("ReplayObject: %v", err)
	}
	if stats.Applied == 0 {
		t.Fatalf("object replay applied nothing: %+v", stats)
	}
	if err := n.c.RestartObject(victim); err != nil {
		t.Fatalf("RestartObject: %v", err)
	}
	wantValue(t, n.read(t, 2), "during")
	if !n.j.Covered(victim) {
		t.Fatal("journal does not report the victim as covered")
	}
}

func TestMoveRecordsKeepLatest(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j.RecordMove(1, []byte("v1-old"))
	j.RecordMove(2, []byte("v2"))
	j.RecordMove(1, []byte("v1-new"))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	moves := j2.Moves()
	if len(moves) != 2 {
		t.Fatalf("got %d moves, want 2", len(moves))
	}
	if moves[0].ID != 1 || string(moves[0].Payload) != "v1-new" {
		t.Fatalf("move 1 = %d %q", moves[0].ID, moves[0].Payload)
	}
	if moves[1].ID != 2 || string(moves[1].Payload) != "v2" {
		t.Fatalf("move 2 = %d %q", moves[1].ID, moves[1].Payload)
	}
}

func TestDurableBlocksSummationExact(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	defer func() { n.close(t) }()
	// The journal keeps a running total of its log bytes; it must equal the
	// sum over segments and objects wherever it can change: after appends,
	// after a rotation, after a snapshot is adopted and after a reopen.
	runningTotalExact := func(when string) {
		t.Helper()
		if got, want := n.j.LogBytes(), n.j.RecomputedLogBytes(); got != want {
			t.Fatalf("%s: running log total %d, per-object sum %d", when, got, want)
		}
	}
	n.write(t, 1, "blocks")
	n.j.RecordMove(7, []byte("ledger-entry"))
	runningTotalExact("after appends")
	if err := n.j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	runningTotalExact("after the snapshot")
	n.write(t, 1, "more")
	runningTotalExact("after the rotation's first appends")
	logBefore := n.j.LogBytes()
	n.close(t)
	n, _ = openNode(t, dir, wal.Config{})
	runningTotalExact("after reopening")
	if got := n.j.LogBytes(); got != logBefore || got == 0 {
		t.Fatalf("reopened journal counts %d log bytes, the one that wrote them %d", got, logBefore)
	}

	var logBits, snapBits int64
	for _, b := range n.j.DurableBlocks() {
		switch b.Location.Kind.String() {
		case "durable-log":
			logBits += int64(b.Bits)
		case "durable-snapshot":
			snapBits += int64(b.Bits)
		default:
			t.Fatalf("unexpected block kind %v", b.Location.Kind)
		}
	}
	if want := n.j.LogBytes() * 8; logBits != want {
		t.Fatalf("log blocks sum to %d bits, journal reports %d", logBits, want)
	}
	if want := n.j.SnapshotBytes() * 8; snapBits != want {
		t.Fatalf("snapshot blocks sum to %d bits, journal reports %d", snapBits, want)
	}
	// On-disk reality must match the accounting.
	var diskLog, diskSnap int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(e.Name(), ".log"):
			diskLog += info.Size()
		case strings.HasSuffix(e.Name(), ".snap"):
			diskSnap += info.Size()
		}
	}
	if diskLog != n.j.LogBytes() {
		t.Fatalf("disk log bytes %d, accounted %d", diskLog, n.j.LogBytes())
	}
	if diskSnap != n.j.SnapshotBytes() {
		t.Fatalf("disk snapshot bytes %d, accounted %d", diskSnap, n.j.SnapshotBytes())
	}
}

func TestBackgroundSnapshotFires(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{SnapshotEvery: 4})
	defer n.close(t)
	for i, s := range []string{"a", "b", "c", "d", "e", "f"} {
		n.write(t, i+1, s)
	}
	// The snapshotter runs asynchronously; Snapshot() serializes behind it
	// and guarantees at least one has completed by the time it returns.
	if err := n.j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n.j.SnapshotBytes() == 0 {
		t.Fatal("no snapshot despite SnapshotEvery=4 and 6 writes")
	}
}

func findSegments(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	if len(out) == 0 {
		t.Fatal("no segments found")
	}
	return out
}

// TestSnapshotAfterRestartWithEmptyActiveSegment: a crash between a rotation
// and the adoption of its snapshot, before anything reached the new segment,
// leaves a frozen segment and an empty active one whose name is the journal's
// next seq. The first snapshot after the restart must not rotate into that
// name: it freezes the segments before the active one and keeps the journal
// writable.
func TestSnapshotAfterRestartWithEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, wal.Config{})
	n.write(t, 1, "frozen")
	records := n.j.LogBytes()
	n.close(t)
	segs := findSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}
	// The abd write journals one update record per object, seqs 1 to 3.
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000004.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	n2, _ := openNode(t, dir, wal.Config{})
	if got := n2.j.LogBytes(); got != records {
		t.Fatalf("reopened journal counts %d log bytes, want %d", got, records)
	}
	if err := n2.j.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	n2.write(t, 1, "after")
	if err := n2.j.Err(); err != nil {
		t.Fatalf("journal failed after the snapshot: %v", err)
	}
	n2.close(t)
	if segs := findSegments(t, dir); len(segs) != 1 || filepath.Base(segs[0]) != "wal-0000000000000004.log" {
		t.Fatalf("segments %v, want the active one alone", segs)
	}
	n3, _ := openNode(t, dir, wal.Config{})
	defer n3.close(t)
	wantValue(t, n3.read(t, 2), "after")
}
