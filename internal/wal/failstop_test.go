package wal_test

import (
	"errors"
	"io"
	"os"
	"sync/atomic"
	"syscall"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// diskFault is one way the active segment's file lets the journal down.
type diskFault int

const (
	shortWrite diskFault = iota // half the frame reaches the file, then an error
	noSpace                     // ENOSPC, nothing written
	fsyncFails                  // the frame is written, the fsync after it fails
)

var diskFaults = map[string]diskFault{"short write": shortWrite, "ENOSPC": noSpace, "failing fsync": fsyncFails}

// faultyFile is the active segment with a fault that strikes once armed.
type faultyFile struct {
	wal.SegmentFile
	fault diskFault
	armed *atomic.Bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.armed.Load() {
		switch f.fault {
		case shortWrite:
			n, _ := f.SegmentFile.Write(p[:len(p)/2])
			return n, io.ErrShortWrite
		case noSpace:
			return 0, &os.PathError{Op: "write", Path: "segment", Err: syscall.ENOSPC}
		}
	}
	return f.SegmentFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.armed.Load() && f.fault == fsyncFails {
		return &os.PathError{Op: "sync", Path: "segment", Err: syscall.EIO}
	}
	return f.SegmentFile.Sync()
}

// failedNode journals one acknowledged write ("kept") in dir, then loses the
// disk to fault in the middle of a second ("lost"). The node is returned open,
// its journal latched.
func failedNode(t testing.TB, dir string, fault diskFault) *node {
	t.Helper()
	n, _ := openNode(t, dir, wal.Config{SyncEvery: 1})
	n.write(t, 1, "kept")
	armed := new(atomic.Bool)
	n.j.WrapSegmentFile(func(f wal.SegmentFile) wal.SegmentFile {
		return &faultyFile{SegmentFile: f, fault: fault, armed: armed}
	})
	armed.Store(true)
	err := n.c.RunScoped(1, 0, n.c.N(), func(h *dsys.ClientHandle) error {
		return n.reg.Write(h, value.FromString("lost", dataLen))
	})
	if !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("write over a failing disk: err = %v, want no quorum", err)
	}
	return n
}

// abdUpdate is an abd update of the value s stamped ⟨num, 9⟩, through the
// codec.
func abdUpdate(t *testing.T, num int, s string) dsys.RMW {
	t.Helper()
	var w register.WireWriter
	w.Chunk(register.Chunk{TS: register.Timestamp{Num: num, Client: 9}, Block: erasure.Block{Index: 1, Data: value.FromString(s, dataLen).Bytes()}})
	rmw, err := register.DecodeRMW(dsys.Envelope{Kind: "abd.update", Payload: w.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	return rmw
}

// TestFailedJournalStopsAcknowledging: a short write, a full disk and a
// failing fsync each latch the journal, and from then on the node acknowledges
// no mutating RMW — typed dsys.ErrJournalFailed, the object untouched — while
// its reads keep answering. Whatever reached the disk replays as a prefix: the
// acknowledged write is there after a reopen.
func TestFailedJournalStopsAcknowledging(t *testing.T) {
	for name, fault := range diskFaults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			n := failedNode(t, dir, fault)
			if n.j.Err() == nil {
				t.Fatal("the journal did not latch the fault")
			}
			before := encodedObject(t, n.c, 0)
			if _, err := n.c.ApplyOne(0, abdUpdate(t, 99, "refused")); !errors.Is(err, dsys.ErrJournalFailed) {
				t.Fatalf("update after the fault: err = %v, want dsys.ErrJournalFailed", err)
			}
			if string(encodedObject(t, n.c, 0)) != string(before) {
				t.Fatal("the refused update reached the object")
			}
			if got := n.read(t, 2); !got.Equal(value.FromString("kept", dataLen)) && !got.Equal(value.FromString("lost", dataLen)) {
				t.Fatalf("read after the fault returned %v", got)
			}
			n.c.Close()
			if err := n.j.Close(); err == nil {
				t.Fatal("Close of a failed journal reported no error")
			}

			n2, stats := openNode(t, dir, wal.Config{})
			defer n2.close(t)
			if stats.Applied < n2.c.N()-1 {
				t.Fatalf("replay applied %d records, fewer than the acknowledged write's quorum: %+v", stats.Applied, stats)
			}
			if got := n2.read(t, 2); !got.Equal(value.FromString("kept", dataLen)) && !got.Equal(value.FromString("lost", dataLen)) {
				t.Fatalf("read after recovery returned %v", got)
			}
			n2.write(t, 3, "next")
			wantValue(t, n2.read(t, 2), "next")
		})
	}
}
