package spacebounds

import (
	"bytes"
	"errors"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/reconfig"
	"spacebounds/internal/shard"
)

// trimmed strips the register padding so tests can compare against the short
// strings they wrote.
func trimmed(b []byte) string { return string(bytes.TrimRight(b, "\x00")) }

// checkBreakdown asserts the durability axis of a storage sample is
// summation-exact: the total equals the per-shard attributions plus the
// ledger remainder.
func checkBreakdown(t *testing.T, s *Store) Storage {
	t.Helper()
	st := s.Storage()
	sum := st.Ledger
	for _, part := range st.Shards {
		sum += part.Durable
	}
	if st.Durable != sum {
		t.Fatalf("durable bits not summation-exact: total=%d, sum(Shards[].Durable)+Ledger=%d (%+v)", st.Durable, sum, st)
	}
	return st
}

// TestStoreDurabilityRoundTrip closes a durable store and reopens it on the
// same directory: every acknowledged write must come back from disk alone,
// and the durable-bytes accounting must stay on its own summation-exact axis
// (never leaking into Storage().Bits, which measures the paper's volatile
// space).
func TestStoreDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		ValueSize: 32,
		Shards:    []ShardSpec{{Name: "a"}, {Name: "b"}},
		Durability: Durability{
			Dir:       dir,
			SyncEvery: 1,
		},
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := checkBreakdown(t, s)
	for i := 0; i < 3; i++ {
		if err := s.WriteKey(1, "a", []byte("alpha")); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteKey(2, "b", []byte("beta")); err != nil {
			t.Fatal(err)
		}
	}
	st := checkBreakdown(t, s)
	if st.Durable == 0 {
		t.Fatal("no durable bits after journaled writes")
	}
	if st.Bits != base.Bits {
		t.Fatalf("Bits moved with durable bytes: %d -> %d; the axes must stay separate", base.Bits, st.Bits)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: a fresh process image with wiped memory, same directory.
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, want := range map[string]string{"a": "alpha", "b": "beta"} {
		got, err := s2.ReadKey(3, key)
		if err != nil {
			t.Fatalf("ReadKey(%q) after reopen: %v", key, err)
		}
		if trimmed(got) != want {
			t.Fatalf("ReadKey(%q) after reopen = %q, want %q", key, trimmed(got), want)
		}
	}
	if checkBreakdown(t, s2).Durable == 0 {
		t.Fatal("no durable bits after reopen")
	}
}

// TestDurabilityBreakdownAttributesLedger runs a reconfiguration on a durable
// store: move records land on the ledger axis of the breakdown, per-object
// bytes follow their shards, and the sample stays summation-exact throughout.
func TestDurabilityBreakdownAttributesLedger(t *testing.T) {
	s, err := Open(Options{
		ValueSize:  32,
		Durability: Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteKey(1, "default", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SplitShard("default"); err != nil {
		t.Fatal(err)
	}
	if checkBreakdown(t, s).Ledger == 0 {
		t.Fatal("ledger durable bits = 0 after a journaled move")
	}
}

// TestDurableRestartNodeReplaysFromDisk crashes a node of a durable store,
// writes while it is down, and restarts it: RestartNode must rebuild the node
// from the write-ahead log (fresh state + replay), after which reads are
// correct and the store keeps accounting exactly.
func TestDurableRestartNodeReplaysFromDisk(t *testing.T) {
	s, err := Open(Options{
		ValueSize:  32,
		Durability: Durability{Dir: t.TempDir(), SnapshotEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteKey(1, "default", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // crosses SnapshotEvery while the node is down
		if err := s.WriteKey(1, "default", []byte("during")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RestartNode(0); err != nil {
		t.Fatalf("RestartNode on durable store: %v", err)
	}
	got, err := s.ReadKey(2, "default")
	if err != nil {
		t.Fatal(err)
	}
	if trimmed(got) != "during" {
		t.Fatalf("Read after durable restart = %q, want %q", trimmed(got), "during")
	}
	checkBreakdown(t, s)
}

// failRunner fails every migration step with ErrInterrupted — the
// deterministic stand-in for a controller that dies immediately.
type failRunner struct{}

func (failRunner) RunOn(*shard.Shard, func(h *dsys.ClientHandle) error) error {
	return reconfig.ErrInterrupted
}
func (failRunner) Wait(func() bool) error { return reconfig.ErrInterrupted }
func (failRunner) Checkpoint() error      { return reconfig.ErrInterrupted }

// TestRestartNodeClassifiesResumeFailure is the regression test for the old
// RestartNode conflating its two jobs: a resume failure must be typed
// ErrResumeFailed (node is UP), never ErrRestartFailed, and must leave the
// interrupted move re-drivable by a plain ResumeMoves.
func TestRestartNodeClassifiesResumeFailure(t *testing.T) {
	s, err := Open(Options{ValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteKey(1, "default", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// Interrupt a split at its first step: the ledger now holds an in-flight,
	// interrupted move.
	recon := s.node.Coordinator()
	_, err = recon.Apply(failRunner{}, reconfig.Move{Kind: reconfig.MoveSplit, Shard: "default"})
	if !errors.Is(err, reconfig.ErrInterrupted) {
		t.Fatalf("interrupting Apply = %v, want ErrInterrupted", err)
	}
	if fl := recon.InFlight(); fl == nil || !fl.Interrupted {
		t.Fatalf("no interrupted in-flight move after injected failure: %+v", fl)
	}
	if err := s.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected resume failure")
	s.resumeHook = func() error { return injected }
	err = s.RestartNode(0)
	if !errors.Is(err, ErrResumeFailed) {
		t.Fatalf("RestartNode with failing resume = %v, want ErrResumeFailed", err)
	}
	if errors.Is(err, ErrRestartFailed) {
		t.Fatalf("resume failure misclassified as restart failure: %v", err)
	}
	if !errors.Is(err, injected) {
		// The wrapped cause must stay inspectable even though the class
		// sentinel leads the chain.
		t.Fatalf("RestartNode error lost the resume cause: %v", err)
	}
	// The node is back and the move is still re-drivable.
	if fl := recon.InFlight(); fl == nil || !fl.Interrupted {
		t.Fatalf("in-flight move lost after failed resume: %+v", fl)
	}
	s.resumeHook = nil
	resumed, err := s.ResumeMoves()
	if err != nil || resumed != 1 {
		t.Fatalf("ResumeMoves after failed resume = %d, %v; want 1, nil", resumed, err)
	}
	got, err := s.ReadKey(2, "default")
	if err != nil {
		t.Fatal(err)
	}
	if trimmed(got) != "v0" {
		t.Fatalf("Read after resumed split = %q, want %q", trimmed(got), "v0")
	}
}

// TestRestartNodeClassifiesRestartFailure: a restart-phase failure carries
// ErrRestartFailed, so callers can tell "node still down" from "node up,
// move not resumed".
func TestRestartNodeClassifiesRestartFailure(t *testing.T) {
	s, err := Open(Options{ValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.RestartNode(9999)
	if !errors.Is(err, ErrRestartFailed) {
		t.Fatalf("RestartNode(9999) = %v, want ErrRestartFailed", err)
	}
	if errors.Is(err, ErrResumeFailed) {
		t.Fatalf("restart failure misclassified as resume failure: %v", err)
	}
}

// TestDrainShardWithANodeDown drains a shard while one of its nodes is down:
// the move needs only a quorum of the old region, the key reads back what was
// written, and the storage sample still sums.
func TestDrainShardWithANodeDown(t *testing.T) {
	s, err := Open(Options{ValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteKey(1, "default", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashShardNode("default", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrainShard("default"); err != nil {
		t.Fatalf("DrainShard with a node down: %v", err)
	}
	got, err := s.ReadKey(2, "default")
	if err != nil {
		t.Fatal(err)
	}
	if trimmed(got) != "v0" {
		t.Fatalf("read %q after the drain, want v0", got)
	}
	if err := bitsSum(s.Storage()); err != nil {
		t.Fatal(err)
	}
}

// TestCloseIsIdempotent guards the explicit-plus-deferred Close pattern of the
// examples on a batched, durable store, so the second Close also meets a
// closed journal.
func TestCloseIsIdempotent(t *testing.T) {
	s, err := Open(Options{
		ValueSize:  32,
		Batch:      BatchOptions{MaxSize: 4},
		Durability: Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteKey(1, "default", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
