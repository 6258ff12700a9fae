package wal_test

import (
	"context"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// TestTracedAppliesRecordSpans drives sampled and unsampled writes through a
// journal attached to a traced cluster and checks the traced-journal
// contract: the journal takes the cluster's tracer at Attach, a sampled apply
// records a wal-append span on the op's trace — under the quorum round that
// carried the RMW, the in-process counterpart of the node-side apply — with
// the fsync as its child (SyncEvery is 1, so every append trips the barrier),
// an unsampled apply records nothing, and both are journaled identically —
// tracing never changes what recovery replays.
func TestTracedAppliesRecordSpans(t *testing.T) {
	dir := t.TempDir()
	tr := trace.New(trace.Options{Sample: 1, Proc: "wal-test"})
	n, _ := openNode(t, dir, wal.Config{}, dsys.WithTracer(tr))

	tc := trace.Context{Trace: tr.SpanID(), Span: tr.SpanID()}
	v := value.FromString("traced", dataLen)
	if err := n.c.RunScoped(1, 0, n.c.N(), func(h *dsys.ClientHandle) error {
		h = h.WithContext(trace.NewContext(context.Background(), tc))
		return n.reg.Write(h, v)
	}); err != nil {
		t.Fatalf("traced write: %v", err)
	}

	rounds := make(map[uint64]bool)  // quorum-round span IDs under our op
	appends := make(map[uint64]bool) // wal-append span IDs on our trace
	for _, s := range tr.Snapshot() {
		if s.Trace != tc.Trace {
			t.Errorf("span %016x on trace %016x, want %016x", s.ID, s.Trace, tc.Trace)
			continue
		}
		if s.Stage == trace.StageRound && s.Parent == tc.Span {
			rounds[s.ID] = true
		}
	}
	fsyncs := 0
	for _, s := range tr.Snapshot() {
		switch s.Stage {
		case trace.StageWALAppend:
			appends[s.ID] = true
			if !rounds[s.Parent] {
				t.Errorf("wal-append parent = %016x, not a quorum round of the op %016x", s.Parent, tc.Span)
			}
		case trace.StageWALFsync:
			fsyncs++
		}
	}
	if len(appends) == 0 {
		t.Fatal("no wal-append spans for a sampled apply")
	}
	if fsyncs == 0 {
		t.Fatal("no wal-fsync spans with SyncEvery=1")
	}
	for _, s := range tr.Snapshot() {
		if s.Stage == trace.StageWALFsync && !appends[s.Parent] {
			t.Errorf("wal-fsync parent = %016x, not a wal-append span", s.Parent)
		}
	}

	// An unsampled apply journals without recording.
	before := len(tr.Snapshot())
	n.write(t, 2, "plain")
	if after := len(tr.Snapshot()); after != before {
		t.Errorf("unsampled apply recorded %d spans", after-before)
	}

	// Both writes survive: a fresh node replays them indistinguishably.
	n.close(t)
	n2, stats := openNode(t, dir, wal.Config{})
	defer n2.close(t)
	if stats.Applied == 0 {
		t.Fatalf("replay applied %d records, want the journaled writes back", stats.Applied)
	}
}
