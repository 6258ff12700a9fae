package wal_test

import (
	"os"
	"path/filepath"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// buildSeedSegment produces the bytes of a real segment: a few writes through
// a live cluster with the journal attached.
func buildSeedSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	n, _ := openNode(f, dir, wal.Config{})
	n.write(f, 1, "seed-a")
	n.write(f, 1, "seed-b")
	n.j.RecordMove(1, []byte("seed-move"))
	n.c.Close()
	if err := n.j.Close(); err != nil {
		f.Fatal(err)
	}
	return readSegment(f, dir)
}

// buildFaultedSegment produces the segment a journal leaves behind when the
// disk fails under it mid-write (see failedNode).
func buildFaultedSegment(f *testing.F, fault diskFault) []byte {
	f.Helper()
	dir := f.TempDir()
	n := failedNode(f, dir, fault)
	n.c.Close()
	if err := n.j.Close(); err == nil {
		f.Fatal("Close of a failed journal reported no error")
	}
	return readSegment(f, dir)
}

// buildRecycledSegment produces the bytes of a recycled active segment, its
// own records followed by an older generation's, as build leaves it.
func buildRecycledSegment(f *testing.F, build func(t testing.TB, dir string) *node) []byte {
	f.Helper()
	dir := f.TempDir()
	n := build(f, dir)
	n.c.Close()
	if err := n.j.Close(); err != nil {
		f.Fatal(err)
	}
	return readSegment(f, dir)
}

func readSegment(f *testing.F, dir string) []byte {
	f.Helper()
	raw, err := os.ReadFile(findSegments(f, dir)[0])
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzWALReplay feeds arbitrary bytes to the journal as a segment file and as
// a snapshot file. Whatever the damage — torn writes, flipped bits, hostile
// length prefixes, a recycled file's old tail — Open must either succeed (truncating a torn tail) or
// return an error; Replay must apply a clean prefix or return an error; and a
// second Open of the same directory must succeed (tail repair converges).
// Panics and unbounded allocations are the bugs this hunts.
func FuzzWALReplay(f *testing.F) {
	seed := buildSeedSegment(f)
	f.Add(seed, false)
	f.Add(seed[:len(seed)/2], false)
	f.Add(seed[:len(seed)-3], false)
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0, 200}, false)
	f.Add(seed, true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	// What a short write, a full disk and a failing fsync leave on disk: each
	// must still replay as a prefix.
	for _, fault := range []diskFault{shortWrite, noSpace, fsyncFails} {
		f.Add(buildFaultedSegment(f, fault), false)
	}
	// A valid run followed by records of an older generation: the run
	// again, whose seqs are not above its last; a recycled file's old tail,
	// cut mid-frame; and one that starts with a whole, checksummed record.
	f.Add(append(append([]byte(nil), seed...), seed...), false)
	f.Add(buildRecycledSegment(f, func(t testing.TB, dir string) *node { return recycledNode(t, dir, 6, 1) }), false)
	f.Add(buildRecycledSegment(f, staleMoveNode), false)

	f.Fuzz(func(t *testing.T, data []byte, asSnapshot bool) {
		dir := t.TempDir()
		name := "wal-0000000000000001.log"
		if asSnapshot {
			name = "snap-0000000000000001.snap"
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayInto := func() {
			j, err := wal.Open(wal.Config{Dir: dir})
			if err != nil {
				return // refused cleanly
			}
			defer j.Close()
			reg, err := safereg.NewABD(register.Config{F: 1, K: 1, DataLen: dataLen})
			if err != nil {
				t.Fatal(err)
			}
			states, err := reg.InitialStates(value.Zero(dataLen))
			if err != nil {
				t.Fatal(err)
			}
			c := dsys.NewCluster(states, dsys.WithLiveMode())
			defer c.Close()
			_, _ = j.Replay(c) // error is fine; panic is not
			_ = j.Moves()
		}
		replayInto()
		// Second open: the torn-tail truncation (or snapshot rejection) of
		// the first pass must leave a directory that opens cleanly.
		j, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatalf("second Open after repair: %v", err)
		}
		j.Close()
	})
}
