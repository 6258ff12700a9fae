package wal_test

import (
	"os"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// BenchmarkJournalAppend is the journal's row of the ladder: one adaptive
// update record at the tcp-durable shape (f = 1, k = 2, 4 KiB values) framed
// and written to a real file, with no fsync and no snapshot in the timed path.
// "trimmed" is the update of an uncontended write, which went into Vp and is
// journaled without its full replica; "whole" one that went into Vf. Each
// allocates its codec payload and, when trimmed, the RMW's journal form.
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
