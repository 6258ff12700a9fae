package spacebounds

import (
	"fmt"
	"testing"
)

// What a lone facade operation allocates on the inproc-batched benchmark's
// shape (f = 2, k = 2, 1 KiB values, Batch{MaxSize: 16}, eight named
// shards). A round's bookkeeping is per round, not per base object: its RMWs
// come from one array, its answers ride in their RMWs, and the oracle hands a
// write its n blocks in one call. An in-process operation decodes nothing, so
// decoding in place on the wire leaves both counts where its parent measured
// them: 27 for a write and 19 for a read.
const (
	writeKeyAllocs       = 27
	writeKeyAllocsParent = 27
	readKeyAllocs        = 19
	readKeyAllocsParent  = 19
)

// TestOperationAllocations pins what one uncontended WriteKey and one ReadKey
// allocate in process. A change that moves either count must say why.
func TestOperationAllocations(t *testing.T) {
	shards := make([]ShardSpec, 8)
	for i := range shards {
		shards[i] = ShardSpec{Name: fmt.Sprintf("shard-%d", i)}
	}
	s, err := Open(Options{
		Algorithm: Adaptive, F: 2, K: 2, ValueSize: 1024,
		Shards: shards, Batch: BatchOptions{MaxSize: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	write := func() {
		if err := s.WriteKey(1, "shard-3", val); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := s.ReadKey(1, "shard-3"); err != nil {
			t.Fatal(err)
		}
	}
	write()
	read()
	if got := testing.AllocsPerRun(200, write); got > writeKeyAllocs {
		t.Errorf("a lone WriteKey allocates %.1f times, want at most %d (its parent measured %d)",
			got, writeKeyAllocs, writeKeyAllocsParent)
	}
	if got := testing.AllocsPerRun(200, read); got > readKeyAllocs {
		t.Errorf("a lone ReadKey allocates %.1f times, want at most %d (its parent measured %d)",
			got, readKeyAllocs, readKeyAllocsParent)
	}
}
