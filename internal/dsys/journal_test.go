package dsys

import (
	"errors"
	"sync"
	"testing"

	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
)

// recJournal records RecordApply calls and reports fixed durable blocks.
type recJournal struct {
	mu      sync.Mutex
	applies []int
	blocks  []storagecost.BlockInfo
}

func (j *recJournal) RecordApply(object int, rmw RMW) {
	j.mu.Lock()
	j.applies = append(j.applies, object)
	j.mu.Unlock()
}

func (j *recJournal) RecordApplyTraced(object int, rmw RMW, _ trace.Context) {
	j.RecordApply(object, rmw)
}

func (j *recJournal) Refuses(RMW) error { return nil }

func (j *recJournal) DurableBlocks() []storagecost.BlockInfo { return j.blocks }

func (j *recJournal) recorded() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]int(nil), j.applies...)
}

// TestJournalRecordsAppliesAndDurableBlocks: an attached journal sees every
// applied RMW, its durable blocks ride along in storage samples on the
// durable axis, and detaching stops both.
func TestJournalRecordsAppliesAndDurableBlocks(t *testing.T) {
	c := newTestCluster(3, WithLiveMode())
	defer c.Close()
	j := &recJournal{blocks: []storagecost.BlockInfo{
		{Location: storagecost.Location{Kind: storagecost.DurableLog, ID: 0}, Bits: 64},
		{Location: storagecost.Location{Kind: storagecost.DurableSnapshot, ID: 1}, Bits: 32},
	}}
	c.SetJournal(j)
	for i := 0; i < 2; i++ {
		if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.recorded(); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("journal recorded %v, want [0 0]", got)
	}
	snap := c.SampleStorage()
	if snap.DurableLogBits != 64 || snap.DurableSnapshotBits != 32 {
		t.Fatalf("durable axis = log %d / snap %d, want 64 / 32", snap.DurableLogBits, snap.DurableSnapshotBits)
	}
	if snap.DurableBits() != 96 {
		t.Fatalf("DurableBits = %d, want 96", snap.DurableBits())
	}

	c.SetJournal(nil)
	if _, err := c.ApplyOne(1, addBlockRMW{bits: 8}); err != nil {
		t.Fatal(err)
	}
	if got := j.recorded(); len(got) != 2 {
		t.Fatalf("detached journal still recorded: %v", got)
	}
	if snap := c.SampleStorage(); snap.DurableBits() != 0 {
		t.Fatalf("detached journal still reports %d durable bits", snap.DurableBits())
	}
}

// failingJournal is a recJournal that loses the disk while recording its
// failAt-th RMW, and from then on refuses everything but reads.
type failingJournal struct {
	recJournal
	failAt int
	err    error
}

func (j *failingJournal) RecordApply(object int, rmw RMW) {
	if j.err != nil {
		return
	}
	if len(j.recorded()) == j.failAt {
		j.err = errors.New("disk full")
		return
	}
	j.recJournal.RecordApply(object, rmw)
}

func (j *failingJournal) Refuses(rmw RMW) error {
	if _, read := rmw.(readCounterRMW); read {
		return nil
	}
	return j.err
}

// refusingRMW answers with an error: it could not make its transition.
type refusingRMW struct{ addBlockRMW }

func (refusingRMW) Apply(State) any { return errors.New("not on this state") }

// TestFailedJournalStopsAcknowledging: the RMW whose own record fails is not
// answered, later ones are stopped before they touch the object, read-only
// RMWs are served throughout, and a replay is not the journal's business.
func TestFailedJournalStopsAcknowledging(t *testing.T) {
	c := newTestCluster(3, WithLiveMode())
	defer c.Close()
	j := &failingJournal{failAt: 1}
	c.SetJournal(j)
	counter := func() int {
		out, err := c.ApplyOne(0, readCounterRMW{})
		if err != nil {
			t.Fatalf("read with the journal in state %v: %v", j.err, err)
		}
		return out.(int)
	}
	if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); err != nil {
		t.Fatal(err)
	}
	// The second record is the one that fails: applied in memory, unanswered.
	if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("apply whose record failed: err = %v, want ErrJournalFailed", err)
	}
	if got := counter(); got != 2 {
		t.Fatalf("counter = %d after the failing record, want 2", got)
	}
	if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("apply after the failure: err = %v, want ErrJournalFailed", err)
	}
	if got := counter(); got != 2 {
		t.Fatalf("counter = %d: a refused RMW reached the object", got)
	}
	if got := j.recorded(); len(got) != 1 {
		t.Fatalf("journal recorded %v, want the one apply before the failure", got)
	}
	if out, err := c.ReplayApply(0, addBlockRMW{bits: 8}); err != nil || out != 3 {
		t.Fatalf("ReplayApply under a failed journal = %v, %v; want 3", out, err)
	}
}

// TestDecoratedJournalStillRefuses: a decorator that embeds the journal it
// wraps forwards Refuses with the rest, so a cluster behind it stops
// acknowledging once the inner journal's disk has failed.
func TestDecoratedJournalStillRefuses(t *testing.T) {
	c := newTestCluster(3, WithLiveMode())
	defer c.Close()
	c.SetJournal(struct{ Journal }{&failingJournal{}})
	for i := 0; i < 2; i++ {
		if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); !errors.Is(err, ErrJournalFailed) {
			t.Fatalf("apply %d behind a failed journal: err = %v, want ErrJournalFailed", i, err)
		}
	}
	if out, err := c.ApplyOne(0, readCounterRMW{}); err != nil || out != 1 {
		t.Fatalf("read behind a failed journal = %v, %v; want 1", out, err)
	}
}

// TestRefusedApplyIsNeitherCountedNorJournaled: an Apply that answers with an
// error value is reported as ErrApplyRefused, live and in replay, and the
// journal never hears of it.
func TestRefusedApplyIsNeitherCountedNorJournaled(t *testing.T) {
	c := newTestCluster(3, WithLiveMode())
	defer c.Close()
	j := &recJournal{}
	c.SetJournal(j)
	if _, err := c.ApplyOne(0, refusingRMW{}); !errors.Is(err, ErrApplyRefused) {
		t.Fatalf("ApplyOne: err = %v, want ErrApplyRefused", err)
	}
	if _, err := c.ReplayApply(0, refusingRMW{}); !errors.Is(err, ErrApplyRefused) {
		t.Fatalf("ReplayApply: err = %v, want ErrApplyRefused", err)
	}
	if got := j.recorded(); len(got) != 0 {
		t.Fatalf("journal recorded %v for refused applies", got)
	}
}

// unchangedRMW answers that it left the state as it found it, for want of a
// parameter if incomplete is set.
type unchangedRMW struct {
	readCounterRMW
	incomplete bool
}

type unchangedResp struct{ incomplete bool }

func (r unchangedResp) NoChange() (unchanged, incomplete bool) { return true, r.incomplete }

func (u unchangedRMW) Apply(State) any { return unchangedResp{u.incomplete} }

// TestUnchangedApplyIsNeitherCountedNorJournaled: an answer that declares the
// state unchanged reaches the caller, live and in replay, without the object
// counting an apply or the journal hearing of one. If the RMW changed nothing
// because it was incomplete, a replay that meets it has diverged from its
// log: ErrApplyRefused. An answer that declares a change is an apply like any.
func TestUnchangedApplyIsNeitherCountedNorJournaled(t *testing.T) {
	c := newTestCluster(3, WithLiveMode())
	defer c.Close()
	j := &recJournal{}
	c.SetJournal(j)
	for _, incomplete := range []bool{false, true} {
		resp, err := c.ApplyOne(0, unchangedRMW{incomplete: incomplete})
		if err != nil || resp != (unchangedResp{incomplete}) {
			t.Fatalf("ApplyOne(incomplete %v) = %v, %v; want the RMW's own answer", incomplete, resp, err)
		}
	}
	if resp, err := c.ReplayApply(0, unchangedRMW{}); err != nil || resp != (unchangedResp{}) {
		t.Fatalf("ReplayApply of a no-op = %v, %v; want the RMW's own answer", resp, err)
	}
	if _, err := c.ReplayApply(0, unchangedRMW{incomplete: true}); !errors.Is(err, ErrApplyRefused) {
		t.Fatalf("ReplayApply of an incomplete RMW: err = %v, want ErrApplyRefused", err)
	}
	if got, applied := j.recorded(), c.objs()[0].applied; len(got) != 0 || applied != 0 {
		t.Fatalf("journal recorded %v and the object counted %d applies for RMWs that changed nothing", got, applied)
	}
	if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); err != nil {
		t.Fatal(err)
	}
	if got, applied := j.recorded(), c.objs()[0].applied; len(got) != 1 || applied != 1 {
		t.Fatalf("journal recorded %v and the object counted %d applies, want the one that changed it", got, applied)
	}
}

// TestObjectStateReadRestoreReplay covers the recovery surface: observing a
// state under its apply lock, installing a decoded snapshot state, and
// re-applying journaled RMWs on top — including while the object is crashed,
// which is exactly when recovery runs.
func TestObjectStateReadRestoreReplay(t *testing.T) {
	c := newTestCluster(3, WithLiveMode())
	defer c.Close()
	if _, err := c.ApplyOne(0, addBlockRMW{bits: 8}); err != nil {
		t.Fatal(err)
	}
	var counter int
	if err := c.ReadObjectState(0, func(s State) { counter = s.(*testState).counter }); err != nil {
		t.Fatal(err)
	}
	if counter != 1 {
		t.Fatalf("observed counter = %d, want 1", counter)
	}

	if err := c.CrashObject(0); err != nil {
		t.Fatal(err)
	}
	if !c.ObjectDown(0) {
		t.Fatal("ObjectDown(0) = false after crash")
	}
	if err := c.RestoreObjectState(0, &testState{counter: 5}); err != nil {
		t.Fatal(err)
	}
	// ReplayApply works on the crashed object (recovery replays before the
	// restart) and bypasses journal and metrics.
	out, err := c.ReplayApply(0, addBlockRMW{bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out != 6 {
		t.Fatalf("ReplayApply = %v, want 6 (restored 5 + 1)", out)
	}
	if err := c.RestartObject(0); err != nil {
		t.Fatal(err)
	}
	if c.ObjectDown(0) {
		t.Fatal("ObjectDown(0) = true after restart")
	}

	// Error paths: unknown and retired objects, and the out-of-range probe.
	for name, err := range map[string]error{
		"ReadObjectState":    c.ReadObjectState(99, func(State) {}),
		"RestoreObjectState": c.RestoreObjectState(99, &testState{}),
	} {
		if !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("%s(99) = %v, want ErrUnknownObject", name, err)
		}
	}
	if _, err := c.ReplayApply(-1, addBlockRMW{}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("ReplayApply(-1) = %v, want ErrUnknownObject", err)
	}
	if c.ObjectDown(99) {
		t.Fatal("ObjectDown(99) = true for unknown object")
	}
	if err := c.RetireObjects(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadObjectState(2, func(State) {}); !errors.Is(err, ErrRetiredObject) {
		t.Fatalf("ReadObjectState(retired) = %v, want ErrRetiredObject", err)
	}
	if err := c.RestoreObjectState(2, &testState{}); !errors.Is(err, ErrRetiredObject) {
		t.Fatalf("RestoreObjectState(retired) = %v, want ErrRetiredObject", err)
	}
	if _, err := c.ReplayApply(2, addBlockRMW{}); !errors.Is(err, ErrRetiredObject) {
		t.Fatalf("ReplayApply(retired) = %v, want ErrRetiredObject", err)
	}
}

// TestEveryEntryPointAppliesOnce drives one RMW through each way an RMW can
// take effect and checks the shared apply step did its three jobs exactly
// once: the state moved, the object's applied count rose by one, and the
// journal got one record — except on replay, whose RMW was journaled when it
// first applied.
func TestEveryEntryPointAppliesOnce(t *testing.T) {
	round := func(c *Cluster) error {
		return c.RunScoped(1, 0, 1, func(h *ClientHandle) error {
			_, err := h.Invoke([]int{0}, func(int) RMW { return addBlockRMW{bits: 8} }, 1)
			return err
		})
	}
	for _, tc := range []struct {
		name     string
		opts     []Option
		drive    func(c *Cluster) error
		journals int
	}{
		{"live round", []Option{WithLiveMode()}, round, 1},
		{"ApplyOne", []Option{WithLiveMode()}, func(c *Cluster) error {
			_, err := c.ApplyOne(0, addBlockRMW{bits: 8})
			return err
		}, 1},
		{"controlled step", nil, func(c *Cluster) error {
			c.Start()
			return round(c)
		}, 1},
		{"ReplayApply", []Option{WithLiveMode()}, func(c *Cluster) error {
			_, err := c.ReplayApply(0, addBlockRMW{bits: 8})
			return err
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(1, tc.opts...)
			defer c.Close()
			j := &recJournal{}
			c.SetJournal(j)
			if err := tc.drive(c); err != nil {
				t.Fatal(err)
			}
			var counter, applied int
			if err := c.ReadObjectState(0, func(s State) {
				counter = s.(*testState).counter
				applied = c.objs()[0].applied
			}); err != nil {
				t.Fatal(err)
			}
			if counter != 1 || applied != 1 {
				t.Fatalf("state counter = %d, applied = %d, want 1 and 1", counter, applied)
			}
			if got := len(j.recorded()); got != tc.journals {
				t.Fatalf("journal holds %d records, want %d", got, tc.journals)
			}
		})
	}
}
