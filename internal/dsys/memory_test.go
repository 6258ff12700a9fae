package dsys

import (
	"context"
	"testing"
)

// TestRoundMemoryFollowsTheEngine: on the in-process engines, live and
// controlled, a round's memory is the handle's, handed out zeroed and kept
// under its key from one borrow to the next, and every key has memory of its
// own; the remote engine gets new memory on every borrow. OpMemory lends the
// handle's memory on every engine.
func TestRoundMemoryFollowsTheEngine(t *testing.T) {
	const n = 3
	remote := NewRemoteCluster(n, roundInvokerFunc(func(context.Context, int, []int, func(int) RMW, int) (map[int]any, error) {
		return RoundResult(), nil
	}))
	defer remote.Close()
	controlled := newTestCluster(n)
	defer controlled.Close()
	controlled.Start()
	live := newTestCluster(n, WithLiveMode())
	defer live.Close()
	for _, e := range []struct {
		name  string
		c     *Cluster
		lends bool
	}{{"live", live, true}, {"controlled", controlled, true}, {"remote", remote, false}} {
		t.Run(e.name, func(t *testing.T) {
			err := e.c.RunScoped(1, 0, n, func(h *ClientHandle) error {
				first := RoundMemory[slotRMW](h, 0, n)
				first[1].counter = 7
				again := RoundMemory[slotRMW](h, 0, n)
				if same := &first[0] == &again[0]; same != e.lends {
					t.Errorf("a second borrow under the same key shares the first's memory: %v, want %v", same, e.lends)
				}
				if again[1].counter != 0 {
					t.Error("round memory was handed out with what its last borrower left in it")
				}
				if other := RoundMemory[slotRMW](h, 1, n); &other[0] == &again[0] {
					t.Error("two keys lent the same memory")
				}
				if ints := RoundMemory[int](h, 0, n+1); len(ints) != n+1 {
					t.Errorf("a borrow of another type under a used key got %d values, want %d", len(ints), n+1)
				}
				list := OpMemory[int](h, 2, n)
				list[0] = 1
				if again := OpMemory[int](h, 2, n); &again[0] != &list[0] || again[0] != 0 {
					t.Error("OpMemory did not lend the handle's memory, zeroed")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPutLiveHandleReleasesLentMemory: a pooled live handle keeps the memory
// it lends, but nothing of what an operation left in it stays reachable.
func TestPutLiveHandleReleasesLentMemory(t *testing.T) {
	c := newTestCluster(2, WithLiveMode())
	defer c.Close()
	h := &ClientHandle{c: c, id: 1, span: 2}
	rmws := RoundMemory[*slotRMW](h, 0, 2)
	rmws[0], rmws[1] = new(slotRMW), new(slotRMW)
	decoder := OpMemory[*int](h, 1, 3)
	decoder[2] = new(int)
	putLiveHandle(h)
	if rmws[0] != nil || rmws[1] != nil || decoder[2] != nil {
		t.Fatal("a pooled handle keeps what its last operation left in its memory reachable")
	}
}

// TestLiveRoundAllocations: a round whose RMWs are the live handle's round
// memory allocates nothing, the borrow included.
func TestLiveRoundAllocations(t *testing.T) {
	const n, quorum = 5, 3
	c := newTestCluster(n, WithLiveMode())
	defer c.Close()
	err := c.RunScoped(1, 0, n, func(h *ClientHandle) error {
		allocs := testing.AllocsPerRun(100, func() {
			rmws := RoundMemory[slotRMW](h, 0, n)
			if _, err := h.InvokeAll(func(obj int) RMW { return &rmws[obj] }, quorum); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a live round over its handle's memory allocates %.1f times, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
