package spacebounds

import (
	"fmt"
	"testing"
)

// What a lone facade operation allocates on the inproc-batched benchmark's
// shape (f = 2, k = 2, 1 KiB values, Batch{MaxSize: 16}, eight named
// shards). A round's bookkeeping is per round, not per base object: its RMWs
// come from one array, its answers ride in their RMWs, and the oracle lists a
// write's n blocks in one call. Nor does a round allocate its result: the
// answers land in slots the client handle keeps, the handle comes from a
// pool, and the batch lane's round function and the shard layer's pass-through
// are built once, not per round. What nothing keeps past the call stays in
// its caller's frame: a round's RMW factory, the oracles, the list of the
// write's n blocks, the code's list of shard views, the update round's
// bookkeeping and a read's read set; an adaptive read round's objects answer
// with their piece headers into the round's RMW array, and a read decodes the
// winner's chunks straight from its read set, with no generator rows while
// every data block is there. A write lists the blocks it holds on its stack,
// and the client's stripe copies the list into a buffer it keeps. On the live
// engine every round's RMW array and a write's chunk list are memory the
// pooled handle lends (dsys.RoundMemory), and on every engine a read's
// decoder list is (dsys.OpMemory).
//
// So a write keeps what its base objects keep, and nothing else: the caller's
// full-size value is borrowed, not copied, and encoded from where it stands,
// and its n blocks — the k data blocks detached from the caller's bytes and
// the n−k parities — are n allocations of n·D/k bytes in all, where its parent
// measured 8 (a padded copy of the value and the list of blocks besides). A
// read keeps the value it decoded, which it hands to its caller: 1, where its
// parent measured 2 (a second copy for the caller). Under the race detector a
// pool drops a quarter of what it is given, and a dropped handle takes the
// memory it lends with it: poolDropAllocs widens both pins there.
const (
	writeKeyAllocs       = 6
	writeKeyAllocsParent = 8
	readKeyAllocs        = 1
	readKeyAllocsParent  = 2
)

// openInprocBatched opens a store on the inproc-batched benchmark's shape and
// returns it with a 1 KiB value; the store is closed when tb ends. Its
// operations go to shard inprocBatchedKey.
func openInprocBatched(tb testing.TB) (*Store, []byte) {
	tb.Helper()
	shards := make([]ShardSpec, 8)
	for i := range shards {
		shards[i] = ShardSpec{Name: fmt.Sprintf("shard-%d", i)}
	}
	s, err := Open(Options{
		Algorithm: Adaptive, F: 2, K: 2, ValueSize: 1024,
		Shards: shards, Batch: BatchOptions{MaxSize: 16},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	return s, val
}

const inprocBatchedKey = "shard-3"

// TestOperationAllocations pins what one uncontended WriteKey and one ReadKey
// allocate in process. A change that moves either count must say why.
func TestOperationAllocations(t *testing.T) {
	s, val := openInprocBatched(t)
	write := func() {
		if err := s.WriteKey(1, inprocBatchedKey, val); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := s.ReadKey(1, inprocBatchedKey); err != nil {
			t.Fatal(err)
		}
	}
	write()
	read()
	if got, want := testing.AllocsPerRun(200, write), writeKeyAllocs+poolDropAllocs; got > want {
		t.Errorf("a lone WriteKey allocates %.1f times, want at most %.0f (its parent measured %d)",
			got, want, writeKeyAllocsParent)
	}
	if got, want := testing.AllocsPerRun(200, read), readKeyAllocs+poolDropAllocs; got > want {
		t.Errorf("a lone ReadKey allocates %.1f times, want at most %.0f (its parent measured %d)",
			got, want, readKeyAllocsParent)
	}
}

// unbatchedOpAllocs is what a lone unbatched WriteKey and ReadKey allocate
// per provider at f = 2, k = 2 (abd at k = 1), 1 KiB values, one shard, with
// what this build's parent measured. An unbatched operation hands its round
// a function the shard layer binds once (a pooled op), a write lists the
// blocks it holds on its stack, and every provider's read gathers its read
// set on its stack. A quiescent object answers a read round into a window of
// one header beside its RMW (ecreg's write opens with such a round too). The
// rounds' RMW arrays, a write's chunk list and a read's decoder list are
// memory the pooled handle lends. A write borrows the caller's value and
// lists its blocks on its stack, so what it allocates is its n blocks (abd's
// five replicas, n = 5); a read allocates the value it hands over.
var unbatchedOpAllocs = []struct {
	algorithm               Algorithm
	k                       int
	write, read             float64
	writeParent, readParent int
}{
	{Adaptive, 2, 6, 1, 8, 2},
	{Replication, 1, 5, 1, 7, 2},
	{ErasureCoded, 2, 6, 1, 8, 2},
	{Safe, 2, 6, 1, 8, 2},
}

// poolDropAllocs is what a lone operation may allocate beyond its pin
// because a sync.Pool handed it nothing: zero, but for the race detector
// (race_test.go).
var poolDropAllocs = 0.0

// TestUnbatchedOperationAllocations pins unbatchedOpAllocs. A change that
// moves a count must say why.
func TestUnbatchedOperationAllocations(t *testing.T) {
	for _, p := range unbatchedOpAllocs {
		t.Run(string(p.algorithm), func(t *testing.T) {
			s, err := Open(Options{Algorithm: p.algorithm, F: 2, K: p.k, ValueSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			val := make([]byte, 1024)
			write := func() {
				if err := s.WriteKey(1, "default", val); err != nil {
					t.Fatal(err)
				}
			}
			read := func() {
				if _, err := s.ReadKey(1, "default"); err != nil {
					t.Fatal(err)
				}
			}
			write()
			read()
			if got, want := testing.AllocsPerRun(200, write), p.write+poolDropAllocs; got > want {
				t.Errorf("a lone unbatched WriteKey allocates %.1f times, want at most %.0f (its parent measured %d)",
					got, want, p.writeParent)
			}
			if got, want := testing.AllocsPerRun(200, read), p.read+poolDropAllocs; got > want {
				t.Errorf("a lone unbatched ReadKey allocates %.1f times, want at most %.0f (its parent measured %d)",
					got, want, p.readParent)
			}
		})
	}
}

// BenchmarkStoreOps is the in-process ladder row of the facade: one client's
// WriteKey and ReadKey on the store TestOperationAllocations pins, with
// allocations reported beside the time.
func BenchmarkStoreOps(b *testing.B) {
	s, val := openInprocBatched(b)
	if err := s.WriteKey(1, inprocBatchedKey, val); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			val[0] = byte(i)
			if err := s.WriteKey(1, inprocBatchedKey, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReadKey(1, inprocBatchedKey); err != nil {
				b.Fatal(err)
			}
		}
	})
}
