package reconfig

import (
	"strings"
	"sync"
	"testing"
)

// recMoveJournal records every journaled ledger transition, latest-last.
type recMoveJournal struct {
	mu      sync.Mutex
	records map[int][][]byte
}

func (j *recMoveJournal) RecordMove(id int, encoded []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.records == nil {
		j.records = map[int][][]byte{}
	}
	j.records[id] = append(j.records[id], append([]byte(nil), encoded...))
}

func (j *recMoveJournal) latest(id int) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	recs := j.records[id]
	if len(recs) == 0 {
		return nil
	}
	return recs[len(recs)-1]
}

// TestJournalRecordsMoveTransitions: with a journal attached, a real split
// journals every ledger transition and the final record decodes as Done.
// Detaching stops recording.
func TestJournalRecordsMoveTransitions(t *testing.T) {
	set := newSet(t, 2)
	defer set.Close()
	co := NewCoordinator(set)
	j := &recMoveJournal{}
	co.SetJournal(j)
	if _, err := co.Apply(NewLiveRunner(set, 1<<28), Move{Kind: MoveSplit, Shard: "s0"}); err != nil {
		t.Fatal(err)
	}
	rec := j.latest(1)
	if rec == nil {
		t.Fatal("journal saw no records for move 1")
	}
	m, err := DecodeMoveState(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Done || m.ID != 1 || m.Move.Kind != MoveSplit {
		t.Fatalf("final record = %+v, want Done split #1", m)
	}

	co.SetJournal(nil)
	if _, err := co.Apply(NewLiveRunner(set, 1<<28), Move{Kind: MoveDrain, Shard: "s1"}); err != nil {
		t.Fatal(err)
	}
	if j.latest(2) != nil {
		t.Fatal("detached journal still received records")
	}
}

// TestRestoreLedgerRules exercises each restoration rule: completed and
// table-flipped entries refuse restoration, grow-stage entries abort cleanly,
// planned entries stay interrupted and in flight, aborted history is kept,
// unfinished moves of a kind this build does not drive are refused, and
// malformed journals (two in-flight, non-empty ledger) are rejected.
func TestRestoreLedgerRules(t *testing.T) {
	restore := func(t *testing.T, states ...MoveState) (*Coordinator, *recMoveJournal, error) {
		t.Helper()
		set := newSet(t, 2)
		t.Cleanup(func() { set.Close() })
		co := NewCoordinator(set)
		j := &recMoveJournal{}
		co.SetJournal(j)
		return co, j, co.RestoreLedger(states)
	}
	split := Move{Kind: MoveSplit, Shard: "s0"}

	t.Run("done is an error", func(t *testing.T) {
		_, _, err := restore(t, MoveState{ID: 1, Move: split, Done: true, Step: StepRetire})
		if err == nil || !strings.Contains(err.Error(), "completed move") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("past table flip is an error", func(t *testing.T) {
		_, _, err := restore(t, MoveState{ID: 1, Move: split, Step: StepTableFlip})
		if err == nil || !strings.Contains(err.Error(), "past the table flip") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("grow stage aborts cleanly", func(t *testing.T) {
		co, j, err := restore(t, MoveState{ID: 1, Move: split, Step: StepGrowRegions, Interrupted: true})
		if err != nil {
			t.Fatal(err)
		}
		if fl := co.InFlight(); fl != nil {
			t.Fatalf("in-flight after auto-abort: %+v", fl)
		}
		led := co.Ledger()
		if len(led) != 1 || !led[0].Aborted || !strings.Contains(led[0].AbortReason, "successor regions were lost") {
			t.Fatalf("ledger = %+v", led)
		}
		if co.Stats().Aborts != 1 {
			t.Fatalf("Aborts = %d, want 1", co.Stats().Aborts)
		}
		// The abort itself was re-journaled.
		m, err := DecodeMoveState(j.latest(1))
		if err != nil || !m.Aborted {
			t.Fatalf("journaled record = %+v, %v", m, err)
		}
	})
	t.Run("planned stays interrupted and re-drivable", func(t *testing.T) {
		co, _, err := restore(t,
			MoveState{ID: 1, Move: split, Aborted: true, AbortReason: "old history", Resumes: 2},
			MoveState{ID: 3, Move: split, Sources: []string{"s0"}, Step: StepPlanned},
		)
		if err != nil {
			t.Fatal(err)
		}
		fl := co.InFlight()
		if fl == nil || fl.ID != 3 || !fl.Interrupted {
			t.Fatalf("in-flight = %+v, want interrupted move 3", fl)
		}
		if got := co.Stats(); got.Aborts != 1 || got.Resumes != 2 {
			t.Fatalf("stats = %+v", got)
		}
		// The restored entry is re-drivable: resuming completes the split.
		resumed, ev, err := co.Resume(NewLiveRunner(co.set, 1<<28))
		if err != nil || !resumed || ev.Kind != MoveSplit {
			t.Fatalf("Resume = %v, %+v, %v", resumed, ev, err)
		}
	})
	// Kind 3 was the dedicated-key add a journal written before PR 29 may
	// hold: unfinished, it is refused (restoring it in flight would wedge the
	// coordinator); aborted, it is history like any other.
	retired := Move{Kind: MoveKind(3), Shard: "hot"}
	t.Run("unfinished retired kind is an error", func(t *testing.T) {
		_, _, err := restore(t, MoveState{ID: 1, Move: retired, Step: StepPlanned})
		if err == nil || !strings.Contains(err.Error(), "does not drive") || !strings.Contains(err.Error(), "remove the WAL") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("aborted retired kind is history", func(t *testing.T) {
		co, _, err := restore(t, MoveState{ID: 1, Move: retired, Step: StepDrain, Aborted: true, AbortReason: "old"})
		if err != nil {
			t.Fatal(err)
		}
		if co.InFlight() != nil || co.Stats().Aborts != 1 || len(co.Ledger()) != 1 {
			t.Fatalf("in-flight = %+v, stats = %+v", co.InFlight(), co.Stats())
		}
		if _, err := co.Apply(NewLiveRunner(co.set, 1<<28), split); err != nil {
			t.Fatalf("move after restoring aborted history: %v", err)
		}
	})
	t.Run("two in-flight is an error", func(t *testing.T) {
		_, _, err := restore(t,
			MoveState{ID: 1, Move: split, Step: StepPlanned},
			MoveState{ID: 2, Move: split, Step: StepPlanned},
		)
		if err == nil || !strings.Contains(err.Error(), "two in-flight moves") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("non-empty ledger is an error", func(t *testing.T) {
		co, _, err := restore(t, MoveState{ID: 1, Move: split, Aborted: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := co.RestoreLedger(nil); err == nil || !strings.Contains(err.Error(), "non-empty ledger") {
			t.Fatalf("second restore: err = %v", err)
		}
	})
}
