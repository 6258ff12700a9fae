package wal_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/wal"
)

// syncWatch is the active segment under a test's eye. posted is the kind of
// the append in progress, which the test sets; the watch keeps, of every
// record written since the last fsync, whether it was posted.
type syncWatch struct {
	wal.SegmentFile
	posted *bool

	unsynced       []bool
	syncs          int
	syncsOnPosted  int
	maxAckUnsynced int // the most acknowledged records unsynced after any append
}

func (w *syncWatch) Write(p []byte) (int, error) {
	w.unsynced = append(w.unsynced, *w.posted)
	return w.SegmentFile.Write(p)
}

func (w *syncWatch) Sync() error {
	w.syncs++
	if *w.posted {
		w.syncsOnPosted++
	}
	w.unsynced = w.unsynced[:0]
	return w.SegmentFile.Sync()
}

// appended notes what is unsynced once an append has returned.
func (w *syncWatch) appended() {
	acked := 0
	for _, posted := range w.unsynced {
		if !posted {
			acked++
		}
	}
	w.maxAckUnsynced = max(w.maxAckUnsynced, acked)
}

// adaptiveGC is an adaptive GC — a posted kind — stamped ⟨num, 9⟩, without a
// piece.
func adaptiveGC(t *testing.T, num int) dsys.RMW {
	t.Helper()
	var w register.WireWriter
	w.TS(register.Timestamp{Num: num, Client: 9})
	w.Chunk(register.Chunk{})
	rmw, c, err := register.DecodeRMW(dsys.Envelope{Kind: "adaptive.gc", Payload: w.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Posted {
		t.Fatal("adaptive.gc is not a posted kind")
	}
	return rmw
}

// journalStream appends one record per entry of stream — posted (an adaptive
// GC) or acknowledged (an abd update) — to a fresh journal fsyncing every
// syncEvery appends, and returns what the segment saw before the journal was
// closed.
func journalStream(t *testing.T, syncEvery int, stream []bool) syncWatch {
	t.Helper()
	j, err := wal.Open(wal.Config{Dir: t.TempDir(), SyncEvery: syncEvery, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	posted := new(bool)
	watch := &syncWatch{posted: posted}
	j.WrapSegmentFile(func(f wal.SegmentFile) wal.SegmentFile {
		watch.SegmentFile = f
		return watch
	})
	for i, p := range stream {
		*posted = p
		if p {
			j.RecordApply(0, adaptiveGC(t, i+1))
		} else {
			j.RecordApply(0, abdUpdate(t, i+1, "v"))
		}
		watch.appended()
	}
	*posted = false
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return *watch
}

// mixedStream is a stream of n appends in which no run of posted ones is
// longer than maxRun, drawn from seed.
func mixedStream(seed int64, n, maxRun int) []bool {
	rng := rand.New(rand.NewSource(seed))
	var out []bool
	for len(out) < n {
		for range 1 + rng.Intn(3) {
			out = append(out, false)
		}
		for range rng.Intn(maxRun + 1) {
			out = append(out, true)
		}
	}
	return out[:n]
}

// TestPostedAppendsLeaveTheFsyncToTheNextAcknowledged: in streams that mix
// acknowledged appends with posted ones, no posted append runs the fsync, no
// more than SyncEvery-1 acknowledged records are ever unsynced, and the fsyncs
// run as often (±1) as in a stream of the same length that is all
// acknowledged — as long as no run of posted appends calls for two. One that
// does owes one fsync, which covers it all.
func TestPostedAppendsLeaveTheFsyncToTheNextAcknowledged(t *testing.T) {
	const length = 240
	for _, syncEvery := range []int{1, 4} {
		plain := journalStream(t, syncEvery, make([]bool, length)).syncs
		streams := map[string][]bool{}
		for seed := range int64(4) {
			streams[fmt.Sprintf("mixed/seed-%d", seed)] = mixedStream(seed, length, syncEvery)
		}
		if syncEvery >= 4 {
			// An adaptive write at f = 1, k = 2 journals four updates, then
			// four GCs.
			var writes []bool
			for len(writes) < length {
				writes = append(writes, false, false, false, false, true, true, true, true)
			}
			streams["writes"] = writes[:length]
		}
		for name, stream := range streams {
			t.Run(fmt.Sprintf("SyncEvery=%d/%s", syncEvery, name), func(t *testing.T) {
				got := journalStream(t, syncEvery, stream)
				if got.syncsOnPosted != 0 {
					t.Errorf("%d fsyncs ran on posted appends", got.syncsOnPosted)
				}
				if got.maxAckUnsynced >= syncEvery {
					t.Errorf("%d acknowledged records were unsynced at once, want at most %d", got.maxAckUnsynced, syncEvery-1)
				}
				if d := got.syncs - plain; d < -1 || d > 1 {
					t.Errorf("%d fsyncs, want %d±1 as for %d acknowledged appends", got.syncs, plain, length)
				}
			})
		}
	}

	// Ten posted appends call for two fsyncs at SyncEvery = 4; the one
	// acknowledged append after them runs one.
	long := append(make([]bool, 10), false)
	for i := range 10 {
		long[i] = true
	}
	if got := journalStream(t, 4, long); got.syncs != 1 || got.syncsOnPosted != 0 {
		t.Errorf("a run of ten posted appends and one acknowledged: %d fsyncs (%d on posted appends), want 1 (0)", got.syncs, got.syncsOnPosted)
	}
}
