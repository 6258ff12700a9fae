package wal_test

import (
	"os"
	"slices"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// BenchmarkJournalAppend is the journal's row of the ladder: one adaptive
// update record at the tcp-durable shape (f = 1, k = 2, 4 KiB values) framed
// and written to a real file, with no fsync and no snapshot in the timed path.
// "trimmed" is the update of an uncontended write, which went into Vp and is
// journaled without its full replica; "whole" one that went into Vf. Either is
// encoded straight into the journal's frame buffer: "whole" allocates nothing,
// "trimmed" the RMW's journal form.
func BenchmarkJournalAppend(b *testing.B) {
	const k, dataLen = 2, 4 << 10
	reg, err := adaptive.New(register.Config{F: 1, K: k, DataLen: dataLen})
	if err != nil {
		b.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		b.Fatal(err)
	}
	c := dsys.NewCluster(states, dsys.WithLiveMode())
	defer c.Close()
	// Applied, as every journaled RMW is: the first update fills Vp, the
	// second finds it full.
	update := func(num int) dsys.RMW {
		rmw := adaptiveUpdate(b, 0, num, 1, dataLen/k, false)
		if _, err := c.ApplyOne(0, rmw); err != nil {
			b.Fatal(err)
		}
		return rmw
	}
	for _, bc := range []struct {
		name string
		rmw  dsys.RMW
	}{{"trimmed", update(1)}, {"whole", update(2)}} {
		b.Run(bc.name, func(b *testing.B) {
			// A fresh journal every so often keeps the file a long run writes
			// to tens of megabytes.
			const recordsPerJournal = 8 << 10
			var j *wal.Journal
			var dir string
			reopen := func() {
				if j != nil {
					if err := j.Close(); err != nil {
						b.Fatal(err)
					}
					os.RemoveAll(dir)
				}
				dir = b.TempDir()
				if j, err = wal.Open(wal.Config{Dir: dir, SyncEvery: 1 << 30, SnapshotEvery: 1 << 30}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%recordsPerJournal == 0 {
					b.StopTimer()
					reopen()
					b.StartTimer()
				}
				j.RecordApply(0, bc.rmw)
			}
			b.StopTimer()
			b.SetBytes(j.LogBytes() / int64((b.N-1)%recordsPerJournal+1))
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkJournalSync is the journal's fsync row of the ladder: one op is 64
// "trimmed" update records of BenchmarkJournalAppend (tcp-durable's shape and
// its SyncEvery) and the fsync that covers them. "fresh" writes them to a new
// segment file, which every fsync then has to grow; "recycled" writes over a
// segment file an earlier generation filled, as every rotation after a
// journal's first two does (DESIGN.md "Recycled segments"). Both rotate every
// opsPerSegment ops, outside the timed path. p50-fsync-us and p95-fsync-us
// are the fsync's own percentiles.
func BenchmarkJournalSync(b *testing.B) {
	const k, dataLen, recordsPerSync, opsPerSegment = 2, 4 << 10, 64, 32
	reg, err := adaptive.New(register.Config{F: 1, K: k, DataLen: dataLen})
	if err != nil {
		b.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		b.Fatal(err)
	}
	c := dsys.NewCluster(states, dsys.WithLiveMode())
	defer c.Close()
	rmw := adaptiveUpdate(b, 0, 1, 1, dataLen/k, false)
	if _, err := c.ApplyOne(0, rmw); err != nil {
		b.Fatal(err)
	}
	cfg := wal.Config{SyncEvery: 1 << 30, SnapshotEvery: 1 << 30}
	fill := func(j *wal.Journal) {
		for i := 0; i < recordsPerSync; i++ {
			j.RecordApply(0, rmw)
		}
	}
	for _, recycled := range []bool{false, true} {
		name := "fresh"
		if recycled {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			var j *wal.Journal
			var dir string
			open := func() {
				dir = b.TempDir()
				cfg.Dir = dir
				if j, err = wal.Open(cfg); err != nil {
					b.Fatal(err)
				}
			}
			// rotate starts the next segment: a new journal in a new
			// directory, or the journal's snapshot, which writes over the
			// file of the segment before the one it freezes.
			rotate := func() {
				if recycled {
					if err := j.Snapshot(); err != nil {
						b.Fatal(err)
					}
					return
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
				open()
			}
			open()
			if recycled {
				j.Attach(c)
				// Two generations fill the two files the journal alternates
				// between.
				for range 2 {
					for range opsPerSegment {
						fill(j)
					}
					rotate()
				}
			}
			took := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%opsPerSegment == 0 {
					b.StopTimer()
					rotate()
					b.StartTimer()
				}
				fill(j)
				start := time.Now()
				if err := j.Sync(); err != nil {
					b.Fatal(err)
				}
				took = append(took, time.Since(start))
			}
			b.StopTimer()
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds())/1e3, "p50-fsync-us")
			b.ReportMetric(float64(took[len(took)*95/100].Nanoseconds())/1e3, "p95-fsync-us")
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestAppendAllocatesNoPayload pins the journal's side of the ladder: a record
// is encoded straight into the journal's frame buffer, so appending one
// allocates nothing — and an update journaled without its replica only the
// copy of the RMW that is its journal form (the parent of PR 24 allocated a
// codec payload besides, for every record).
func TestAppendAllocatesNoPayload(t *testing.T) {
	const pieceLen = 2 << 10
	j, err := wal.Open(wal.Config{Dir: t.TempDir(), SyncEvery: 1 << 30, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var w register.WireWriter
	w.TS(register.Timestamp{Num: 2, Client: 1})
	w.Chunk(register.Chunk{TS: register.Timestamp{Num: 2, Client: 1}, Block: erasure.Block{Index: 1, Data: make([]byte, pieceLen)}})
	gc, _, err := register.DecodeRMW(dsys.Envelope{Kind: "adaptive.gc", Payload: w.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rmw  dsys.RMW
		want float64
	}{
		{"a GC with its piece", gc, 0},
		{"an update that did not store its replica", adaptiveUpdate(t, 0, 2, 1, pieceLen, false), 1},
	} {
		j.RecordApply(0, tc.rmw) // the frame buffer grows to the record
		if got := testing.AllocsPerRun(200, func() { j.RecordApply(0, tc.rmw) }); got > tc.want {
			t.Errorf("journaling %s allocates %.1f times, want at most %.0f", tc.name, got, tc.want)
		}
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
}
