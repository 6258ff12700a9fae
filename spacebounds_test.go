package spacebounds

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStoreDefaults(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Nodes() != 3 || s.FaultTolerance() != 1 || s.ValueSize() != 1024 {
		t.Fatalf("defaults wrong: n=%d f=%d size=%d", s.Nodes(), s.FaultTolerance(), s.ValueSize())
	}
	if s.Algorithm() == "" {
		t.Fatal("empty algorithm name")
	}
}

func TestStoreWriteReadCrash(t *testing.T) {
	for _, algo := range []Algorithm{Adaptive, Replication, ErasureCoded, Safe} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			s, err := Open(Options{Algorithm: algo, F: 1, K: 2, ValueSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := []byte("the quick brown fox")
			if err := s.WriteKey(1, "default", want); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := s.CrashNode(0); err != nil {
				t.Fatalf("crash: %v", err)
			}
			got, err := s.ReadKey(2, "default")
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got[:len(want)], want) {
				t.Fatalf("read %q, want prefix %q", got, want)
			}
			if st := s.Storage(); st.Bits <= 0 || st.Shards["default"].Bits != st.Bits {
				t.Fatalf("storage sample %+v: want positive bits, all of them the default shard's", st)
			}
		})
	}
}

func TestStoreRejectsOversizedValue(t *testing.T) {
	s, err := Open(Options{ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteKey(1, "default", make([]byte, 9)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

// TestWriteKeyKeepsNoViewOfTheCallersSlice overwrites the caller's slice
// after WriteKey returns: a later ReadKey still returns what was written, for
// a full-size value (borrowed by the write) and for a short one that pad
// extends, batched or not. The slice ReadKey returns is the caller's own:
// writing to it changes no later read.
func TestWriteKeyKeepsNoViewOfTheCallersSlice(t *testing.T) {
	for _, algo := range []Algorithm{Adaptive, Replication, ErasureCoded, Safe} {
		t.Run(string(algo), func(t *testing.T) {
			for _, batch := range []int{0, 16} {
				s, err := Open(Options{Algorithm: algo, F: 1, K: 2, ValueSize: 64, Batch: BatchOptions{MaxSize: batch}})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for _, n := range []int{64, 19} {
					val := bytes.Repeat([]byte{byte(n)}, n)
					want := append(bytes.Clone(val), make([]byte, 64-n)...)
					if err := s.WriteKey(1, "default", val); err != nil {
						t.Fatalf("batch %d: write: %v", batch, err)
					}
					for i := range val {
						val[i] = 0xee
					}
					for reader := 2; reader <= 3; reader++ {
						got, err := s.ReadKey(reader, "default")
						if err != nil {
							t.Fatalf("batch %d: read: %v", batch, err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("batch %d: %d-byte write overwritten by its caller afterwards, or by an earlier reader: read %x, want %x", batch, n, got, want)
						}
						for i := range got {
							got[i] = 0xdd
						}
					}
				}
			}
		})
	}
}

// TestConcurrentWritersReuseTheirBuffers: batched writers each write from one
// buffer, refilled with the writer's next value as soon as WriteKey returns,
// while readers scribble over every slice ReadKey returns. Every read must
// return a value some writer wrote, whole, or v0; under the race detector
// nothing may read a writer's buffer after its write returned, nor a reader's
// slice that another reader was handed.
func TestConcurrentWritersReuseTheirBuffers(t *testing.T) {
	const size, writers, readers, ops = 64, 4, 4, 50
	s, err := Open(Options{F: 1, K: 2, ValueSize: size, Batch: BatchOptions{MaxSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill := func(buf []byte, writer, seq int) {
		for i := range buf {
			buf[i] = byte(writer*ops + seq)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, size)
			for seq := 1; seq <= ops; seq++ {
				fill(buf, w, seq)
				if err := s.WriteKey(1+w, "default", buf); err != nil {
					t.Error(err)
					return
				}
			}
			fill(buf, 0, 0)
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				got, err := s.ReadKey(100+r, "default")
				if err != nil {
					t.Error(err)
					return
				}
				if v := int(got[0]); v > writers*ops || !bytes.Equal(got, bytes.Repeat(got[:1], size)) {
					t.Errorf("reader %d: %x is no value a writer wrote whole", r, got)
					return
				}
				for j := range got {
					got[j] = 0xdd
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestStoreUnknownAlgorithm(t *testing.T) {
	if _, err := Open(Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestStoreSharded(t *testing.T) {
	s, err := Open(Options{
		F: 1, K: 2, ValueSize: 64,
		Shards: []ShardSpec{
			{Name: "hot", Algorithm: Adaptive},
			{Name: "cold", Algorithm: Replication, ValueSize: 32},
			{Name: "bulk", Algorithm: ErasureCoded},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Shards(); len(got) != 3 || got[0] != "hot" || got[1] != "cold" || got[2] != "bulk" {
		t.Fatalf("shards = %v", got)
	}
	// hot: n=4 (2+2), cold: n=3 (2+1), bulk: n=4.
	if s.Nodes() != 11 {
		t.Fatalf("total nodes = %d, want 11", s.Nodes())
	}
	// Keys equal to shard names route exactly; each shard round-trips.
	for i, name := range s.Shards() {
		want := []byte("v-" + name)
		if err := s.WriteKey(i+1, name, want); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		got, err := s.ReadKey(50+i, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("shard %s read %q, want prefix %q", name, got, want)
		}
	}
	// Aggregate storage is the sum of the per-shard costs.
	st := s.Storage()
	sum := 0
	for name, part := range st.Shards {
		if part.Bits <= 0 {
			t.Fatalf("shard %s reports %d bits", name, part.Bits)
		}
		sum += part.Bits
	}
	if len(st.Shards) != 3 || st.Bits != sum {
		t.Fatalf("total storage %d, sum of shards %d (%v)", st.Bits, sum, st.Shards)
	}
	// Without a journal there is nothing durable to count.
	if st.Durable != 0 || st.Ledger != 0 {
		t.Fatalf("journal-less store reports durable bits: %+v", st)
	}
	// A crash within one shard's budget leaves every shard readable.
	if err := s.CrashShardNode("hot", 0); err != nil {
		t.Fatal(err)
	}
	for i, name := range s.Shards() {
		if _, err := s.ReadKey(80+i, name); err != nil {
			t.Fatalf("read %s after crash: %v", name, err)
		}
	}
}

func TestStoreShardedKeyRouting(t *testing.T) {
	s, err := Open(Options{
		ValueSize: 32,
		Shards:    []ShardSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Hashed keys read back what was written under the same key.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("user-%d", i)
		want := []byte(fmt.Sprintf("value-%d", i))
		if err := s.WriteKey(1, key, want); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
		got, err := s.ReadKey(2, key)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("key %s read %q, want prefix %q", key, got, want)
		}
	}
}

func TestOpenDoesNotMutateCallerShards(t *testing.T) {
	shards := []ShardSpec{{Name: "x"}}
	s1, err := Open(Options{Algorithm: Replication, F: 1, ValueSize: 32, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if shards[0].Algorithm != "" || shards[0].K != 0 {
		t.Fatalf("Open mutated the caller's shard specs: %+v", shards[0])
	}
	s2, err := Open(Options{Algorithm: Adaptive, F: 1, K: 2, ValueSize: 32, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Algorithm(); got != "adaptive(f=1,k=2)" {
		t.Fatalf("second Open built %q, want the adaptive register", got)
	}
}

func TestStoreShardedOversized(t *testing.T) {
	s, err := Open(Options{Shards: []ShardSpec{{Name: "tiny", ValueSize: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteKey(1, "tiny", make([]byte, 9)); err == nil {
		t.Fatal("oversized value accepted by shard")
	}
}

func TestStoreConcurrentClients(t *testing.T) {
	s, err := Open(Options{Algorithm: Adaptive, F: 2, K: 2, ValueSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for client := 1; client <= 6; client++ {
		client := client
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := s.WriteKey(client, "default", []byte(fmt.Sprintf("client-%d-gen-%d", client, i))); err != nil {
					t.Errorf("client %d write: %v", client, err)
					return
				}
				if _, err := s.ReadKey(client, "default"); err != nil {
					t.Errorf("client %d read: %v", client, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// After quiescence the adaptive register stores one piece per node.
	cfgWant := s.Nodes() * 8 * (128 / 2)
	if got := s.Storage().Bits; got != cfgWant {
		t.Fatalf("quiescent storage = %d bits, want %d", got, cfgWant)
	}
}

// TestStoreBatchedWriteRead round-trips values through a store running group
// commit on every shard.
func TestStoreBatchedWriteRead(t *testing.T) {
	store, err := Open(Options{
		Algorithm: Adaptive, F: 1, K: 2, ValueSize: 64,
		Shards: []ShardSpec{{Name: "a"}, {Name: "b"}},
		Batch:  BatchOptions{MaxSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const clients = 12
	var wg sync.WaitGroup
	for cl := 1; cl <= clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", cl%4)
			if err := store.WriteKey(cl, key, []byte(fmt.Sprintf("v%d", cl))); err != nil {
				t.Errorf("client %d write: %v", cl, err)
				return
			}
			if _, err := store.ReadKey(cl, key); err != nil {
				t.Errorf("client %d read: %v", cl, err)
			}
		}()
	}
	wg.Wait()

	// A fresh read on each shard must decode cleanly after the batched load.
	for _, name := range store.Shards() {
		if _, err := store.ReadKey(100, name); err != nil {
			t.Fatalf("post-load read on shard %s: %v", name, err)
		}
	}
}

// TestStorageBreakdownExactUnderBatchedLoad pins the Definition 2 accounting
// under the batched engine: in every sample the aggregate base-object bits
// equal the sum of the per-shard attributions — while a batched workload is
// in flight, not just at quiescence.
func TestStorageBreakdownExactUnderBatchedLoad(t *testing.T) {
	store, err := Open(Options{
		Algorithm: Adaptive, F: 1, K: 2, ValueSize: 256,
		Shards: []ShardSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Batch:  BatchOptions{MaxSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for cl := 1; cl <= 8; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				payload[0] = byte(i)
				key := fmt.Sprintf("key-%d", (cl+i)%6)
				if err := store.WriteKey(cl, key, payload); err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
			}
		}()
	}

	for sample := 0; sample < 25; sample++ {
		if err := bitsSum(store.Storage()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("sample %d: %v", sample, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Quiescence shows as two consecutive samples that agree and charge every
	// shard exactly its n pieces of D/k, (2f+k)/k·D.
	const quiescentBits = (2*1 + 2) * 256 * 8 / 2
	var st Storage
	settled := func() bool {
		prev := st.Shards
		st = store.Storage()
		for name, part := range st.Shards {
			if part.Bits != quiescentBits || prev[name] != part {
				return false
			}
		}
		return len(prev) == len(st.Shards)
	}
	for deadline := time.Now().Add(10 * time.Second); !settled(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("storage did not settle at %d bits per shard: last sample %v", quiescentBits, st.Shards)
		}
	}
	if err := bitsSum(st); err != nil || len(st.Shards) != 3 || store.StorageBits() != st.Bits {
		t.Fatalf("quiescent sample %+v (%v): want three shards summing to StorageBits %d", st, err, store.StorageBits())
	}
}

// bitsSum checks a sample's base-object axis: Bits == Σ Shards[].Bits.
func bitsSum(st Storage) error {
	sum := 0
	for _, part := range st.Shards {
		sum += part.Bits
	}
	if sum != st.Bits {
		return fmt.Errorf("per-shard bits sum to %d, aggregate says %d (%v)", sum, st.Bits, st.Shards)
	}
	return nil
}
