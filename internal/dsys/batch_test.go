package dsys

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spacebounds/internal/oracle"
)

// TestLiveBatchCoalescesServicePeriods proves the point of the batched
// engine: many concurrent RMWs on one object complete in far fewer service
// periods than RMWs, because each period drains a whole batch.
func TestLiveBatchCoalescesServicePeriods(t *testing.T) {
	const (
		rmws    = 32
		batch   = 8
		latency = 2 * time.Millisecond
	)
	c := newTestCluster(1, WithLiveMode(), WithLiveLatency(latency), WithLiveBatch(batch))
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < rmws; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := c.RunScoped(i+1, 0, 1, func(h *ClientHandle) error {
				_, err := h.Invoke([]int{0}, func(int) RMW {
					return addBlockRMW{source: oracle.SourceTag{Write: oracle.WriteID{Client: i + 1, Seq: 1}}, bits: 8}
				}, 1)
				return err
			})
			if err != nil {
				t.Errorf("rmw %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	if got := c.objs()[0].applied; got != rmws {
		t.Fatalf("applied = %d, want %d", got, rmws)
	}
	periods := c.LiveServicePeriods()
	if periods == 0 {
		t.Fatal("batched engine recorded no service periods")
	}
	// Perfect coalescing would need rmws/batch = 4 periods; demand at least a
	// 2x amortization over the one-period-per-RMW engine even under scheduling
	// noise.
	if periods > rmws/2 {
		t.Fatalf("LiveServicePeriods() = %d for %d RMWs with batch %d; coalescing is not happening", periods, rmws, batch)
	}
}

// engineRows runs fn against the two ways of configuring the finite-capacity
// engine — WithLiveLatency alone, and with WithLiveBatch(batch) added. Both
// select the same queue-and-server engine, so every contract below holds on
// both rows.
func engineRows(t *testing.T, objects int, latency time.Duration, batch int, fn func(t *testing.T, c *Cluster)) {
	for _, row := range []struct {
		name string
		opts []Option
	}{
		{"latency-only", nil},
		{fmt.Sprintf("batch=%d", batch), []Option{WithLiveBatch(batch)}},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := append([]Option{WithLiveMode(), WithLiveLatency(latency)}, row.opts...)
			fn(t, newTestCluster(objects, opts...))
		})
	}
}

// TestLiveBatchQuorumAndCrash checks that the queued path keeps the quorum
// contract of Invoke: crashed objects never respond, quorums that can still
// form succeed, and unreachable quorums fail with ErrStuck.
func TestLiveBatchQuorumAndCrash(t *testing.T) {
	engineRows(t, 5, time.Millisecond, 4, func(t *testing.T, c *Cluster) {
		defer c.Close()
		if err := c.CrashObject(4); err != nil {
			t.Fatal(err)
		}

		err := c.RunScoped(1, 0, 5, func(h *ClientHandle) error {
			resp, err := h.InvokeAll(func(obj int) RMW {
				return addBlockRMW{source: oracle.SourceTag{Write: oracle.WriteID{Client: 1, Seq: 1}, Index: obj}, bits: 8}
			}, 4)
			if err != nil {
				return err
			}
			if len(resp) < 4 {
				t.Errorf("got %d responses, want at least 4", len(resp))
			}
			if _, ok := resp[4]; ok {
				t.Error("crashed object 4 responded")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("quorum of 4 with one crash: %v", err)
		}

		// Crash two more: only 2 of 5 objects remain, so a quorum of 4 is
		// unreachable and the round must fail.
		if err := c.CrashObject(0); err != nil {
			t.Fatal(err)
		}
		if err := c.CrashObject(1); err != nil {
			t.Fatal(err)
		}
		err = c.RunScoped(2, 0, 5, func(h *ClientHandle) error {
			_, err := h.InvokeAll(func(obj int) RMW {
				return addBlockRMW{source: oracle.SourceTag{Write: oracle.WriteID{Client: 2, Seq: 1}, Index: obj}, bits: 8}
			}, 4)
			return err
		})
		if !errors.Is(err, ErrStuck) {
			t.Fatalf("unreachable quorum returned %v, want ErrStuck", err)
		}
	})
}

// TestLiveBatchChannelAccounting pins Definition 2 on the service queue:
// while RMWs sit in an object's queue their parameters are charged to the
// channel, and the moment one is applied the same bits move to the
// base-object state — never both, never neither.
func TestLiveBatchChannelAccounting(t *testing.T) {
	const (
		bits    = 64
		rmws    = 5
		latency = 200 * time.Millisecond
	)
	engineRows(t, 1, latency, rmws, func(t *testing.T, c *Cluster) {
		defer c.Close()

		var wg sync.WaitGroup
		for i := 0; i < rmws; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = c.RunScoped(i+1, 0, 1, func(h *ClientHandle) error {
					_, err := h.Invoke([]int{0}, func(int) RMW {
						return addBlockRMW{source: oracle.SourceTag{Write: oracle.WriteID{Client: i + 1, Seq: 1}}, bits: bits}
					}, 1)
					return err
				})
			}()
		}

		// Wait until all five requests are queued, well within the first
		// service period (the server sleeps latency before applying anything,
		// and requests stay queued until they are applied).
		deadline := time.Now().Add(latency / 2)
		for {
			c.objs()[0].qmu.Lock()
			queued := len(c.objs()[0].queue)
			c.objs()[0].qmu.Unlock()
			if queued == rmws {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d RMWs queued before the first service period ended", queued, rmws)
			}
			time.Sleep(time.Millisecond)
		}

		snap := c.SampleStorage()
		if snap.ChannelBits != rmws*bits {
			t.Fatalf("in-flight ChannelBits = %d, want %d", snap.ChannelBits, rmws*bits)
		}
		if snap.BaseObjectBits != 0 {
			t.Fatalf("BaseObjectBits = %d before anything applied, want 0", snap.BaseObjectBits)
		}

		wg.Wait()
		snap = c.SampleStorage()
		if snap.ChannelBits != 0 {
			t.Fatalf("ChannelBits = %d after quiescence, want 0", snap.ChannelBits)
		}
		if snap.BaseObjectBits != rmws*bits {
			t.Fatalf("BaseObjectBits = %d after quiescence, want %d", snap.BaseObjectBits, rmws*bits)
		}
	})
}

// TestLiveBatchCloseReleasesClients checks that Close unblocks clients whose
// rounds are still queued at object servers, interrupting the service period
// rather than sleeping it out.
func TestLiveBatchCloseReleasesClients(t *testing.T) {
	engineRows(t, 1, time.Hour, 2, func(t *testing.T, c *Cluster) {
		errCh := make(chan error, 1)
		go func() {
			errCh <- c.RunScoped(1, 0, 1, func(h *ClientHandle) error {
				_, err := h.Invoke([]int{0}, func(int) RMW {
					return addBlockRMW{source: oracle.SourceTag{Write: oracle.WriteID{Client: 1, Seq: 1}}, bits: 8}
				}, 1)
				return err
			})
		}()
		// Give the round a moment to enqueue, then halt the cluster.
		time.Sleep(10 * time.Millisecond)
		closed := make(chan struct{})
		go func() {
			c.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close still waiting out the service period")
		}
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrHalted) {
				t.Fatalf("halted round returned %v, want ErrHalted", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("client still blocked after Close")
		}
	})
}
