package spacebounds

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/workload"
)

// churnEvery is the number of operations that complete between two churn
// actions. Two actions inside one operation can take down, one after the
// other, two nodes a round needs — more faults than the round can absorb even
// though no more than F are ever down at once — so actions are spaced well
// apart: at one action per 15 operations such failures already appeared.
const churnEvery = 40

// churn is the root package's live adversary, shaped like a chaos oracle: a
// seed and an action budget, paced by completed operations and never by the
// clock. One action restarts every node the churn took down, through
// Store.RestartNode (so a durable store rebuilds each one from its journal and
// an interrupted move is resumed), then crashes one random node of a random
// current shard. At most one node is down at any time, and the shard list is
// read afresh for every action, so the churn follows splits and drains.
type churn struct {
	t        *testing.T
	store    *Store
	rng      *rand.Rand
	progress func() int // operations completed so far; nil when they call opDone

	down              []int // nodes crashed and not yet restarted
	crashes, restarts int

	ops         atomic.Int64  // operations that called opDone
	mark, acted chan struct{} // opDone's handshake with the churn
	stop, done  chan struct{}
	halt        func()
}

// startChurn spends actions on s, the first at once and each further one
// churnEvery completed operations after the last. With a progress count, the
// churn reads it every 20µs; the reading sets no pace, the count does, but a
// busy machine may starve the reader until every operation has finished.
// With a nil progress, the operations pace the churn themselves: each calls
// opDone, and the one that completes a churnEvery mark waits until the churn
// has spent its next action.
func startChurn(t *testing.T, s *Store, seed int64, actions int, progress func() int) *churn {
	c := &churn{
		t: t, store: s, rng: rand.New(rand.NewSource(seed)), progress: progress,
		mark: make(chan struct{}), acted: make(chan struct{}),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	c.halt = sync.OnceFunc(func() {
		close(c.stop)
		<-c.done
	})
	t.Cleanup(c.halt)
	c.act()
	go func() {
		defer close(c.done)
		for actions--; actions > 0; actions-- {
			if !c.awaitMark() {
				return
			}
			c.act()
			if c.progress == nil {
				c.acted <- struct{}{}
			}
		}
	}()
	return c
}

// awaitMark waits until churnEvery more operations have completed, and
// reports false if the churn was stopped first.
func (c *churn) awaitMark() bool {
	if c.progress == nil {
		select {
		case <-c.mark:
			return true
		case <-c.stop:
			return false
		}
	}
	for next := c.progress() + churnEvery; c.progress() < next; {
		select {
		case <-c.stop:
			return false
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	return true
}

// opDone counts one completed operation of a churn started without a
// progress count. The operation that completes a churnEvery mark hands the
// churn its turn and returns once the action is spent, or at once when the
// churn has spent its budget.
func (c *churn) opDone() {
	if c.ops.Add(1)%churnEvery != 0 {
		return
	}
	select {
	case c.mark <- struct{}{}:
		<-c.acted
	case <-c.done:
	}
}

// act is one action: restart what is down, then crash one node.
func (c *churn) act() {
	c.restartAll()
	shards := c.store.set.Shards()
	sh := shards[c.rng.Intn(len(shards))]
	id := sh.Base + c.rng.Intn(sh.Span)
	switch err := c.store.CrashNode(id); {
	case err == nil:
		c.down = append(c.down, id)
		c.crashes++
	case !errors.Is(err, dsys.ErrRetiredObject): // a move may retire the shard after the read
		c.t.Errorf("churn: crashing node %d: %v", id, err)
	}
}

func (c *churn) restartAll() {
	for _, id := range c.down {
		switch err := c.store.RestartNode(id); {
		case err == nil:
			c.restarts++
		case !errors.Is(err, dsys.ErrRetiredObject): // the node went with its retired region
			c.t.Errorf("churn: restarting node %d: %v", id, err)
		}
	}
	c.down = c.down[:0]
}

// finish stops the churn and restarts whatever it left down. It fails a test
// whose churn did not crash and restart at least two nodes: such a run
// exercised nothing.
func (c *churn) finish() {
	c.t.Helper()
	c.halt()
	c.restartAll()
	c.t.Logf("churn: %d crashes, %d restarts", c.crashes, c.restarts)
	if c.crashes < 2 || c.restarts < 2 {
		c.t.Fatalf("churn made %d crashes and %d restarts, want at least 2 of each", c.crashes, c.restarts)
	}
}

// batchedOps counts the operations a batched store has completed.
func batchedOps(s *Store) func() int {
	return func() int {
		st := s.BatchStats()
		return st.Writes + st.Reads
	}
}

// TestBatchedStoreUnderCrashRestartChurn drives concurrent clients through
// the batched quorum engine while storage nodes crash and restart underneath
// them, and pins two invariants:
//
//   - the Batcher never commits a partial lane: every operation submitted to
//     a batcher receives exactly one response, and the batcher's member
//     counters account for every submission — an operation is never silently
//     dropped from, or double-counted in, a shared round that raced a crash;
//   - Storage stays summation-consistent: the aggregate equals the sum of
//     the per-shard attribution in every sample taken while batches and
//     faults are in flight.
//
// Run with -race this is also the concurrency check on crashes and restarts
// racing the batched live engine.
func TestBatchedStoreUnderCrashRestartChurn(t *testing.T) {
	const (
		clients   = 8
		opsPer    = 80
		readEvery = 4 // every 4th op reads
	)
	store, err := Open(Options{
		Shards: []ShardSpec{
			{Name: "alpha"}, {Name: "beta"},
		},
		F:         1,
		K:         2,
		ValueSize: 64,
		Batch:     BatchOptions{MaxSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	churn := startChurn(t, store, 7, 5, nil)

	// Sampler: Storage must be summation-consistent in every sample taken
	// while batches commit and nodes crash mid-flight.
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	var samples atomic.Int64
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if err := bitsSum(store.Storage()); err != nil {
				t.Errorf("Storage inconsistent: %v", err)
				return
			}
			samples.Add(1)
		}
	}()

	var wg sync.WaitGroup
	var writes, reads, writeErrs, readErrs atomic.Int64
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("key-%d", (c+i)%8)
				if i%readEvery == 0 {
					if _, err := store.ReadKey(1+c, key); err != nil {
						// Reads may legitimately starve: the adaptive register
						// is FW-terminating, so reads are only guaranteed to
						// complete once writes stop.
						readErrs.Add(1)
					} else {
						reads.Add(1)
					}
				} else {
					val := []byte(fmt.Sprintf("c%d-i%d", c, i))
					if err := store.WriteKey(1+c, key, val); err != nil {
						writeErrs.Add(1)
					} else {
						writes.Add(1)
					}
				}
				churn.opDone()
			}
		}()
	}
	wg.Wait()
	close(stopSampling)
	samplerWG.Wait()
	churn.finish()

	// Every submission must be accounted for: completions plus errors equal
	// the ops issued (no hung or vanished operations), and the batcher's
	// member counters cover every operation that went through a lane.
	const issued = clients * opsPer
	if got := writes.Load() + reads.Load() + writeErrs.Load() + readErrs.Load(); got != issued {
		t.Fatalf("operations unaccounted for: %d of %d", got, issued)
	}
	st := store.BatchStats()
	if st.Writes+st.Reads != issued {
		t.Fatalf("batcher lanes carried %d ops, %d were submitted: a lane committed partially",
			st.Writes+st.Reads, issued)
	}
	if st.WriteRounds > st.Writes || st.ReadRounds > st.Reads {
		t.Fatalf("more rounds than members (writes %d/%d, reads %d/%d)",
			st.WriteRounds, st.Writes, st.ReadRounds, st.Reads)
	}
	if st.WriteRounds == 0 || st.ReadRounds == 0 {
		t.Fatal("batcher dispatched no rounds; the test exercised nothing")
	}
	// No error-rate bound is asserted here (reads may starve, see above);
	// what must hold is that traffic flows in both directions throughout the
	// churn.
	if writes.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("no successful traffic (writes %d, reads %d)", writes.Load(), reads.Load())
	}
	if samples.Load() == 0 {
		t.Fatal("storage sampler never ran")
	}
}

// TestReconfigUnderFaultInjection runs a split while nodes crash and restart:
// the migration must complete and every write succeed, since the churn never
// takes more than F nodes of a shard down.
func TestReconfigUnderFaultInjection(t *testing.T) {
	store, err := Open(Options{
		Shards:    []ShardSpec{{Name: "s0"}, {Name: "s1"}},
		F:         1,
		K:         2,
		ValueSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var completed atomic.Int64
	churn := startChurn(t, store, 42, 5, func() int { return int(completed.Load()) })

	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 1; c <= 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 32)
			for i := 0; i < 160; i++ {
				payload[0] = byte(i)
				if err := store.WriteKey(c, fmt.Sprintf("key-%d", i%8), payload); err != nil {
					failed.Add(1)
				}
				completed.Add(1)
			}
		}()
	}
	if _, err := store.SplitShard("s0"); err != nil {
		t.Fatalf("split under churn: %v", err)
	}
	wg.Wait()
	churn.finish()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d writes failed (the churn stays within each shard's F)", n)
	}
	if _, err := store.ReadKey(99, "s0"); err != nil {
		t.Fatalf("read after faulted split: %v", err)
	}
}

// TestDurableBatchedChurnPerProvider runs a recorded, batched workload on a
// durable store of each provider while nodes crash and restart, every restart
// rebuilding its node from the journal. No operation may fail, and each
// shard's history must meet the provider's condition: strong regularity, or
// strong safety for the safe register.
func TestDurableBatchedChurnPerProvider(t *testing.T) {
	for _, algo := range []Algorithm{Adaptive, Replication, ErasureCoded, Safe} {
		t.Run(string(algo), func(t *testing.T) {
			store, err := Open(Options{
				Algorithm:  algo,
				Shards:     []ShardSpec{{Name: "s0"}, {Name: "s1"}},
				F:          1,
				K:          2,
				ValueSize:  32,
				Batch:      BatchOptions{MaxSize: 8},
				Durability: Durability{Dir: t.TempDir()},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			churn := startChurn(t, store, 1, 5, batchedOps(store))
			res, err := workload.RunSharded(store.set, workload.ShardedSpec{
				Clients:       4,
				OpsPerClient:  60,
				ReadFraction:  0.3,
				Keys:          8,
				Seed:          1,
				RecordHistory: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			churn.finish()
			if n := res.WriteErrors + res.ReadErrors; n != 0 {
				t.Fatalf("%d operations failed under churn within F", n)
			}
			if algo != Safe {
				if err := res.CheckRegularity(); err != nil {
					t.Fatal(err)
				}
				return
			}
			for name, h := range res.Histories {
				if err := history.CheckStrongSafety(h); err != nil {
					t.Fatalf("shard %q: %v", name, err)
				}
			}
		})
	}
}
