package dsys

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spacebounds/internal/oracle"
)

// testState is a minimal base-object state: a set of labelled blocks plus an
// integer register used to check RMW atomicity and ordering.
type testState struct {
	mu      sync.Mutex
	counter int
	blocks  []BlockRef
}

func (s *testState) AppendBlocks(dst []BlockRef) []BlockRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.blocks...)
}

// addBlockRMW appends a block of a given size and bumps the counter.
type addBlockRMW struct {
	source oracle.SourceTag
	bits   int
}

func (r addBlockRMW) Apply(s State) any {
	ts := s.(*testState)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.counter++
	ts.blocks = append(ts.blocks, BlockRef{Source: r.source, Bits: r.bits})
	return ts.counter
}

func (r addBlockRMW) AppendBlocks(dst []BlockRef) []BlockRef {
	return append(dst, BlockRef{Source: r.source, Bits: r.bits})
}

// readCounterRMW reads the counter without modifying anything.
type readCounterRMW struct{}

func (readCounterRMW) Apply(s State) any {
	ts := s.(*testState)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.counter
}

func (readCounterRMW) AppendBlocks(dst []BlockRef) []BlockRef { return dst }

// answered counts the answers a round returned.
func answered(resp []any) int {
	n := 0
	for _, a := range resp {
		if a != nil {
			n++
		}
	}
	return n
}

func newTestCluster(n int, opts ...Option) *Cluster {
	states := make([]State, n)
	for i := range states {
		states[i] = &testState{}
	}
	return NewCluster(states, opts...)
}

// objectState returns the state of base object i, for a test to inspect the
// states a run left behind.
func (c *Cluster) objectState(i int) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.objs()[i].state
}

func TestControlledQuorumInvoke(t *testing.T) {
	c := newTestCluster(5)
	defer c.Close()

	var got []any
	th := c.Spawn(1, func(h *ClientHandle) error {
		op := h.BeginOp(OpWrite)
		defer h.EndOp()
		src := oracle.SourceTag{Write: op.WriteID(), Index: 1}
		resp, err := h.InvokeAll(func(obj int) RMW { return addBlockRMW{source: src, bits: 100} }, 3)
		got = resp
		return err
	})
	c.Start()
	if err := th.Wait(); err != nil {
		t.Fatalf("task error: %v", err)
	}
	if n := answered(got); n < 3 {
		t.Fatalf("got %d responses, want >= 3", n)
	}
	if reason := c.WaitIdle(); reason != IdleQuiesced {
		t.Fatalf("WaitIdle = %v, want quiesced", reason)
	}
	// With FairPolicy and no competing clients, all 5 RMWs are eventually
	// applied even though the write only waited for 3.
	applied := 0
	for i := 0; i < c.N(); i++ {
		st := c.objectState(i).(*testState)
		applied += st.counter
	}
	if applied != 5 {
		t.Fatalf("applied RMWs = %d, want 5", applied)
	}
	if total, _ := c.PeakStorage(); total < 300 {
		t.Fatalf("peak storage = %d bits, want >= 300", total)
	}
}

// TestPeakStorage follows the run's two peaks, which are reached at
// different times: the total while a client holds 300 bits of its own, the
// base objects once it has let them go and written more.
func TestPeakStorage(t *testing.T) {
	c := newTestCluster(3)
	defer c.Close()
	th := c.Spawn(1, func(h *ClientHandle) error {
		op := h.BeginOp(OpWrite)
		defer h.EndOp()
		src := oracle.SourceTag{Write: op.WriteID(), Index: 1}
		h.SetLocalBlocks([]BlockRef{{Source: src, Bits: 300}})
		// Each apply moves 100 bits from the channel to an object: 600 in all.
		if _, err := h.InvokeAll(func(int) RMW { return addBlockRMW{source: src, bits: 100} }, 3); err != nil {
			return err
		}
		h.SetLocalBlocks(nil)
		// The objects end at 450 bits, the total never again above 450.
		_, err := h.InvokeAll(func(int) RMW { return addBlockRMW{source: src, bits: 50} }, 3)
		return err
	})
	c.Start()
	if err := th.Wait(); err != nil {
		t.Fatal(err)
	}
	if total, base := c.PeakStorage(); total != 600 || base != 450 {
		t.Fatalf("peaks = %d total / %d base bits, want 600 / 450", total, base)
	}

	// A live cluster takes no per-step samples: SampleStorage is its one.
	live := newTestCluster(2, WithLiveMode())
	defer live.Close()
	live.objectState(0).(*testState).blocks = []BlockRef{{Bits: 70}}
	live.SampleStorage()
	if total, base := live.PeakStorage(); total != 70 || base != 70 {
		t.Fatalf("live peaks after a sample = %d / %d, want 70 / 70", total, base)
	}
}

// TestPeakStorageStartsAtZero checks that neither kind of cluster reports a
// peak it has not sampled: a controlled one before its first step, a live one
// holding bits before its first SampleStorage.
func TestPeakStorageStartsAtZero(t *testing.T) {
	c := newTestCluster(3)
	defer c.Close()
	if total, base := c.PeakStorage(); total != 0 || base != 0 {
		t.Fatalf("peaks before any step = %d / %d, want 0 / 0", total, base)
	}

	live := newTestCluster(2, WithLiveMode())
	defer live.Close()
	live.objectState(0).(*testState).blocks = []BlockRef{{Bits: 70}}
	if total, base := live.PeakStorage(); total != 0 || base != 0 {
		t.Fatalf("live peaks before a sample = %d / %d, want 0 / 0", total, base)
	}
}

func TestControlledMultipleClientsInterleave(t *testing.T) {
	c := newTestCluster(3)
	defer c.Close()

	const clients = 4
	handles := make([]*TaskHandle, 0, clients)
	for cl := 1; cl <= clients; cl++ {
		cl := cl
		handles = append(handles, c.Spawn(cl, func(h *ClientHandle) error {
			for round := 0; round < 3; round++ {
				op := h.BeginOp(OpWrite)
				src := oracle.SourceTag{Write: op.WriteID(), Index: round + 1}
				if _, err := h.InvokeAll(func(int) RMW { return addBlockRMW{source: src, bits: 8} }, 2); err != nil {
					return err
				}
				h.EndOp()
			}
			return nil
		}))
	}
	c.Start()
	for i, th := range handles {
		if err := th.Wait(); err != nil {
			t.Fatalf("client %d: %v", i+1, err)
		}
	}
	if reason := c.WaitIdle(); reason != IdleQuiesced {
		t.Fatalf("WaitIdle = %v, want quiesced", reason)
	}
	total := 0
	for i := 0; i < c.N(); i++ {
		total += c.objectState(i).(*testState).counter
	}
	// 4 clients x 3 rounds x 3 objects = 36 RMWs must all have been applied.
	if total != 36 {
		t.Fatalf("total applied = %d, want 36", total)
	}
	if len(c.OutstandingOps()) != 0 {
		t.Fatalf("outstanding ops remain: %v", c.OutstandingOps())
	}
}

func TestCrashObjectBlocksQuorum(t *testing.T) {
	c := newTestCluster(3, WithMaxSteps(1000))
	defer c.Close()
	if err := c.CrashObject(0); err != nil {
		t.Fatalf("CrashObject: %v", err)
	}
	if err := c.CrashObject(1); err != nil {
		t.Fatalf("CrashObject: %v", err)
	}
	if got := c.CrashedObjects(); len(got) != 2 {
		t.Fatalf("CrashedObjects = %v", got)
	}
	if err := c.CrashObject(99); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("CrashObject(99) = %v, want ErrUnknownObject", err)
	}

	th := c.Spawn(1, func(h *ClientHandle) error {
		h.BeginOp(OpWrite)
		defer h.EndOp()
		_, err := h.InvokeAll(func(int) RMW { return readCounterRMW{} }, 2)
		return err
	})
	c.Start()
	// Two of three objects are crashed, so a quorum of two can never form:
	// the run must become stuck rather than quiesce.
	if reason := c.WaitIdle(); reason != IdleStuck {
		t.Fatalf("WaitIdle = %v, want stuck", reason)
	}
	c.Close()
	if err := th.Wait(); !errors.Is(err, ErrHalted) {
		t.Fatalf("task error = %v, want ErrHalted", err)
	}
}

func TestInvokeValidation(t *testing.T) {
	c := newTestCluster(2)
	defer c.Close()
	th := c.Spawn(1, func(h *ClientHandle) error {
		if _, err := h.Invoke([]int{0}, func(int) RMW { return readCounterRMW{} }, 2); !errors.Is(err, ErrBadQuorum) {
			return fmt.Errorf("quorum validation: got %v", err)
		}
		if _, err := h.Invoke([]int{7}, func(int) RMW { return readCounterRMW{} }, 1); !errors.Is(err, ErrUnknownObject) {
			return fmt.Errorf("target validation: got %v", err)
		}
		return nil
	})
	c.Start()
	if err := th.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestStallPolicyMarksRunStuck(t *testing.T) {
	// A policy that refuses to apply anything once a single RMW is pending.
	c := newTestCluster(2, WithPolicy(stallAfterFirstRun{}))
	defer c.Close()
	c.Spawn(1, func(h *ClientHandle) error {
		h.BeginOp(OpWrite)
		defer h.EndOp()
		_, err := h.InvokeAll(func(int) RMW { return readCounterRMW{} }, 2)
		return err
	})
	c.Start()
	if reason := c.WaitIdle(); reason != IdleStuck {
		t.Fatalf("WaitIdle = %v, want stuck", reason)
	}
	// The writer's RMWs are pending but never applied.
	if c.objectState(0).(*testState).counter != 0 {
		t.Fatal("stalled policy still applied an RMW")
	}
}

// stallAfterFirstRun grants the run token to ready clients but never applies
// any pending RMW.
type stallAfterFirstRun struct{}

func (stallAfterFirstRun) Decide(v *View) Decision {
	if len(v.Ready) > 0 {
		return Decision{Kind: KindRun, Ticket: v.Ready[0].Ticket}
	}
	return Decision{Kind: KindStall}
}

func TestRandomPolicyCompletesRuns(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		c := newTestCluster(4, WithPolicy(NewRandomPolicy(seed)))
		var hs []*TaskHandle
		for cl := 1; cl <= 3; cl++ {
			hs = append(hs, c.Spawn(cl, func(h *ClientHandle) error {
				h.BeginOp(OpWrite)
				defer h.EndOp()
				_, err := h.InvokeAll(func(int) RMW { return readCounterRMW{} }, 3)
				return err
			}))
		}
		c.Start()
		for _, th := range hs {
			if err := th.Wait(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		c.Close()
	}
}

func TestMaxStepsBecomesStuck(t *testing.T) {
	c := newTestCluster(2, WithMaxSteps(1))
	defer c.Close()
	c.Spawn(1, func(h *ClientHandle) error {
		h.BeginOp(OpWrite)
		defer h.EndOp()
		_, err := h.InvokeAll(func(int) RMW { return readCounterRMW{} }, 2)
		return err
	})
	c.Start()
	if reason := c.WaitIdle(); reason != IdleStuck {
		t.Fatalf("WaitIdle = %v, want stuck", reason)
	}
}

func TestLiveMode(t *testing.T) {
	c := newTestCluster(5, WithLiveMode())
	defer c.Close()
	const clients, rounds = 8, 10
	var hs []*TaskHandle
	for cl := 1; cl <= clients; cl++ {
		cl := cl
		hs = append(hs, c.Spawn(cl, func(h *ClientHandle) error {
			for r := 0; r < rounds; r++ {
				op := h.BeginOp(OpWrite)
				src := oracle.SourceTag{Write: op.WriteID(), Index: r + 1}
				if _, err := h.InvokeAll(func(int) RMW { return addBlockRMW{source: src, bits: 16} }, 4); err != nil {
					return err
				}
				h.EndOp()
			}
			return nil
		}))
	}
	for _, th := range hs {
		if err := th.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := 0; i < c.N(); i++ {
		total += c.objectState(i).(*testState).counter
	}
	if total != clients*rounds*5 {
		t.Fatalf("applied = %d, want %d", total, clients*rounds*5)
	}
	snap := c.SampleStorage()
	if snap.TotalBits != clients*rounds*5*16 {
		t.Fatalf("sampled bits = %d, want %d", snap.TotalBits, clients*rounds*5*16)
	}
}

// TestLiveModeCrashedQuorumError checks both sides of a quorum on the
// immediate engine: with too many objects down the round fails instead of
// waiting forever, and with a quorum still up it succeeds on the live
// objects' answers alone.
func TestLiveModeCrashedQuorumError(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, quorum int
		crashed   []int
	}{
		{"unreachable", 3, 2, []int{0, 1}},
		{"reachable", 5, 4, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(tc.n, WithLiveMode())
			defer c.Close()
			for _, id := range tc.crashed {
				if err := c.CrashObject(id); err != nil {
					t.Fatal(err)
				}
			}
			var resp []any
			th := c.Spawn(1, func(h *ClientHandle) (err error) {
				resp, err = h.InvokeAll(func(int) RMW { return readCounterRMW{} }, tc.quorum)
				return err
			})
			err := th.Wait()
			if tc.n-len(tc.crashed) < tc.quorum {
				if !errors.Is(err, ErrStuck) {
					t.Fatalf("live invoke with crashed quorum = %v, want ErrStuck", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("live invoke with %d of %d objects up: %v", tc.n-len(tc.crashed), tc.n, err)
			}
			if n := answered(resp); n < tc.quorum {
				t.Fatalf("%d responses, want at least the quorum of %d", n, tc.quorum)
			}
			for _, id := range tc.crashed {
				if resp[id] != nil {
					t.Fatalf("crashed object %d answered: %v", id, resp)
				}
			}
		})
	}
}

// TestLiveRoundSpansTwoFaults pins a round that spans two faults, never more
// than f of them at once: n=4, f=1, quorum 3, object 0 down when the round
// starts; while the round reaches object 1, object 0 restarts and object 2
// crashes (what one churn action of the root package's tests does). The first pass collects only
// objects 1 and 3; the round must still form its quorum from object 0.
func TestLiveRoundSpansTwoFaults(t *testing.T) {
	c := newTestCluster(4, WithLiveMode())
	defer c.Close()
	if err := c.CrashObject(0); err != nil {
		t.Fatal(err)
	}
	var faultErr error
	var resp []any
	th := c.Spawn(1, func(h *ClientHandle) (err error) {
		resp, err = h.InvokeAll(func(obj int) RMW {
			if obj == 1 {
				faultErr = errors.Join(c.RestartObject(0), c.CrashObject(2))
			}
			return readCounterRMW{}
		}, 3)
		return err
	})
	if err := th.Wait(); err != nil {
		t.Fatalf("round spanning a restart and a crash: %v", err)
	}
	if faultErr != nil {
		t.Fatal(faultErr)
	}
	for _, id := range []int{0, 1, 3} {
		if resp[id] == nil {
			t.Fatalf("object %d did not answer: %v", id, resp)
		}
	}
	if resp[2] != nil {
		t.Fatalf("crashed object 2 answered: %v", resp)
	}
}

func TestPendingRMWCountedAsChannelStorage(t *testing.T) {
	// Use a policy that never applies RMWs; pending parameters must still be
	// charged to the channel.
	c := newTestCluster(2, WithPolicy(stallAfterFirstRun{}))
	defer c.Close()
	c.Spawn(7, func(h *ClientHandle) error {
		op := h.BeginOp(OpWrite)
		defer h.EndOp()
		src := oracle.SourceTag{Write: op.WriteID(), Index: 1}
		h.SetLocalBlocks([]BlockRef{{Source: src, Bits: 64}})
		_, err := h.InvokeAll(func(int) RMW { return addBlockRMW{source: src, bits: 32} }, 2)
		return err
	})
	c.Start()
	if reason := c.WaitIdle(); reason != IdleStuck {
		t.Fatalf("WaitIdle = %v, want stuck", reason)
	}
	snap := c.SampleStorage()
	if snap.ChannelBits != 64 {
		t.Fatalf("ChannelBits = %d, want 64 (two pending RMWs of 32 bits)", snap.ChannelBits)
	}
	if snap.ClientBits != 64 {
		t.Fatalf("ClientBits = %d, want 64", snap.ClientBits)
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	c := newTestCluster(2, WithEventLog(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	defer c.Close()
	th := c.Spawn(1, func(h *ClientHandle) error {
		h.BeginOp(OpWrite)
		defer h.EndOp()
		_, err := h.InvokeAll(func(int) RMW { return readCounterRMW{} }, 2)
		return err
	})
	c.Start()
	if err := th.Wait(); err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()
	mu.Lock()
	defer mu.Unlock()
	var runs, applies int
	for _, ev := range events {
		switch ev.Kind {
		case EventRun:
			runs++
		case EventApply:
			applies++
		}
	}
	if runs == 0 || applies != 2 {
		t.Fatalf("trace events: %d runs, %d applies (want >0 runs, 2 applies)", runs, applies)
	}
}

func TestYield(t *testing.T) {
	c := newTestCluster(1)
	defer c.Close()
	th := c.Spawn(1, func(h *ClientHandle) error {
		for i := 0; i < 5; i++ {
			if err := h.Yield(); err != nil {
				return err
			}
		}
		return nil
	})
	c.Start()
	if err := th.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindAndIDStrings(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" || OpKind(9).String() == "" {
		t.Fatal("OpKind strings wrong")
	}
	id := OpID{Client: 2, Seq: 3, Kind: OpRead}
	if id.String() == "" || id.WriteID() != (oracle.WriteID{Client: 2, Seq: 3}) {
		t.Fatal("OpID helpers wrong")
	}
}
