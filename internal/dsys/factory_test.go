package dsys

import (
	"context"
	"slices"
	"testing"
)

// slotRMW reads an object's counter into itself and answers with itself, so
// a round whose RMWs come from one array allocates no answer.
type slotRMW struct{ counter int }

func (r *slotRMW) Apply(s State) any {
	ts := s.(*testState)
	ts.mu.Lock()
	r.counter = ts.counter
	ts.mu.Unlock()
	return r
}

func (*slotRMW) AppendBlocks(dst []BlockRef) []BlockRef { return dst }

// remotePoolDropAllocs is what a remote round allocates on average when its
// pool drops what it is given: nothing but under the race detector
// (race_test.go).
var remotePoolDropAllocs float64

// TestRoundFactoryStaysOnTheStack: no engine keeps a round's RMW factory, so
// a register's factory literal is never moved to the heap. A round over RMWs
// made beforehand then allocates nothing: on a live handle, on a controlled
// one (its calls are its task's and its pending RMWs entries of the
// cluster's list, and the coordinator's steps allocate nothing), and on a
// region-scoped handle of a remote cluster whose transport answers into a
// map from RoundResult, which the engine releases.
func TestRoundFactoryStaysOnTheStack(t *testing.T) {
	const n, quorum = 5, 3
	rmws := make([]slotRMW, n)
	round := func(t *testing.T, h *ClientHandle, want float64) {
		t.Helper()
		allocs := testing.AllocsPerRun(100, func() {
			// Error, not Fatal: a controlled handle runs on its task's goroutine.
			if _, err := h.InvokeAll(func(obj int) RMW { return &rmws[obj] }, quorum); err != nil {
				t.Error(err)
			}
		})
		if allocs > want {
			t.Errorf("a round allocates %.1f times, want at most %.0f: its factory was moved to the heap", allocs, want)
		}
	}
	t.Run("live", func(t *testing.T) {
		c := newTestCluster(n, WithLiveMode())
		defer c.Close()
		if err := c.RunScoped(1, 0, n, func(h *ClientHandle) error { round(t, h, 0); return nil }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("controlled", func(t *testing.T) {
		c := newTestCluster(n)
		defer c.Close()
		c.Start()
		if err := c.RunScoped(1, 0, n, func(h *ClientHandle) error { round(t, h, 0); return nil }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("remote", func(t *testing.T) {
		c := NewRemoteCluster(2*n, roundInvokerFunc(func(ctx context.Context, client int, targets []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error) {
			answers := RoundResult()
			for _, g := range targets {
				answers[g] = makeRMW(g)
			}
			return answers, nil
		}))
		defer c.Close()
		if err := c.RunScoped(1, n, n, func(h *ClientHandle) error { round(t, h, remotePoolDropAllocs); return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEveryEngineMakesEachTargetsRMWOnce: the controlled, live and remote
// engines call a round's factory exactly once for every target and never for
// an object outside the targets. The remote engine makes them all before its
// transport sends anything and lends the transport a factory over them; once
// the round is over, that factory — the pooled round's — reaches no RMW.
func TestEveryEngineMakesEachTargetsRMWOnce(t *testing.T) {
	const n, base, quorum = 5, 3, 2
	targets := []int{0, 2, 3}
	type counted struct {
		calls []int
		rmws  []slotRMW
	}
	newRound := func() *counted { return &counted{calls: make([]int, n), rmws: make([]slotRMW, n)} }
	factory := func(r *counted) func(obj int) RMW {
		return func(obj int) RMW {
			r.calls[obj]++
			return &r.rmws[obj]
		}
	}
	check := func(t *testing.T, r *counted) {
		t.Helper()
		for obj, calls := range r.calls {
			want := 0
			if slices.Contains(targets, obj) {
				want = 1
			}
			if calls != want {
				t.Errorf("object %d: the factory was called %d times, want %d", obj, calls, want)
			}
		}
	}

	t.Run("controlled", func(t *testing.T) {
		c := newTestCluster(n)
		defer c.Close()
		r := newRound()
		th := c.Spawn(1, func(h *ClientHandle) error {
			_, err := h.Invoke(targets, factory(r), quorum)
			return err
		})
		c.Start()
		if err := th.Wait(); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
	t.Run("live", func(t *testing.T) {
		c := newTestCluster(n, WithLiveMode())
		defer c.Close()
		r := newRound()
		if err := c.RunScoped(1, 0, n, func(h *ClientHandle) error {
			_, err := h.Invoke(targets, factory(r), quorum)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
	t.Run("remote", func(t *testing.T) {
		r := newRound()
		var lent func(g int) RMW
		c := NewRemoteCluster(base+n, roundInvokerFunc(func(ctx context.Context, client int, global []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error) {
			for obj, calls := range r.calls {
				if calls == 0 && slices.Contains(targets, obj) {
					t.Errorf("object %d: its RMW was not made before the transport was handed the round", obj)
				}
			}
			lent = makeRMW
			out := make(map[int]any, len(global))
			for _, g := range global {
				rmw := makeRMW(g)
				if rmw != &r.rmws[g-base] {
					t.Errorf("global object %d: the transport got an RMW other than the one made for object %d", g, g-base)
				}
				out[g] = rmw
			}
			return out, nil
		}))
		defer c.Close()
		if err := c.RunScoped(1, base, n, func(h *ClientHandle) error {
			_, err := h.Invoke(targets, factory(r), quorum)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		check(t, r)
		for _, obj := range targets {
			if rmw := lent(base + obj); rmw != nil {
				t.Errorf("after the round, the factory lent to the transport still reaches object %d's RMW", obj)
			}
		}
	})
}
