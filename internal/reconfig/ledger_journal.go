package reconfig

import (
	"fmt"
)

// MoveJournal is the durability hook for the move ledger: every ledger
// transition re-records the entry's full encoded state keyed by its ID, so
// the journal needs to keep only the latest record per move to reconstruct
// the ledger. The coordinator encodes the record itself (EncodeMoveState);
// the journal stores opaque bytes and never imports this package.
type MoveJournal interface {
	RecordMove(id int, encoded []byte)
}

// moveJournalHolder wraps the interface so one atomic pointer swap attaches
// or detaches it (same pattern as the metrics registry).
type moveJournalHolder struct{ j MoveJournal }

// SetJournal attaches a move journal (nil detaches). Attach before applying
// moves; transitions racing the attachment may not be recorded.
func (c *Coordinator) SetJournal(j MoveJournal) {
	if j == nil {
		c.jour.Store(nil)
		return
	}
	c.jour.Store(&moveJournalHolder{j: j})
}

// recordLocked journals the entry's current state. Callers hold c.mu, which
// is what orders records with ledger transitions.
func (c *Coordinator) recordLocked(en *moveEntry) {
	if h := c.jour.Load(); h != nil {
		h.j.RecordMove(en.ID, EncodeMoveState(en.MoveState))
	}
}

// RestoreLedger rebuilds the move ledger from journaled records, in ID order.
// It is called once, on an empty coordinator, before any move is applied.
//
// Restoration is conservative about what survives a full process restart with
// the *initial* layout. A completed or table-flipped move changed the routing
// table and region set in ways a fresh process does not reproduce, so:
//
//   - any Done entry is an error — the journal proves the layout diverged
//     from the initial one; reopen with the final layout or remove the WAL;
//   - an unfinished entry whose move this build does not drive is an error —
//     a journal written before PR 29 may hold an add or remove (kinds 3 and
//     4), and restoring it as in flight would fail every Resume and refuse
//     every new move with errMoveInFlight for good;
//   - an entry that was mid-rollback (Aborting) is finalized as aborted: its
//     successor regions died with the process before any client state could
//     reach them, and the fresh process rebuilds the pre-move table, which is
//     exactly the state the rollback was driving toward;
//   - an in-flight entry at StepTableFlip or later is an error for the same
//     reason (writes may live only in successor regions that no longer
//     exist);
//   - an in-flight entry at StepGrowRegions is aborted here: its successor
//     regions died with the process, but the routing table never flipped, so
//     the pre-move layout is intact and the abort is clean;
//   - an in-flight entry at StepPlanned stays interrupted and re-drivable;
//   - aborted entries are kept as history.
func (c *Coordinator) RestoreLedger(states []MoveState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ledger) != 0 {
		return fmt.Errorf("reconfig: RestoreLedger on a non-empty ledger")
	}
	for _, m := range states {
		invalid := m.Move.Validate()
		switch {
		case m.Done:
			return fmt.Errorf("reconfig: journal records completed move %d (%v); the journaled layout diverged from the initial one — reopen with the final layout or remove the WAL", m.ID, m.Move)
		case !m.Aborted && invalid != nil:
			return fmt.Errorf("reconfig: journal records unfinished move %d (%v), which this build does not drive (%v) — finish it with the build that wrote the WAL, or remove the WAL", m.ID, m.Move, invalid)
		case !m.Aborted && m.Aborting:
			// The driver died mid-rollback. The restart finished the rollback
			// wholesale: the successor regions died with the process, no client
			// state ever reached them (writes were held for the successors
			// throughout the abort window), and the fresh process rebuilds the
			// pre-move table. Finalize the abort and keep it as history.
			m.Aborted = true
			m.Interrupted = false
		case !m.Aborted && m.Step >= StepTableFlip:
			return fmt.Errorf("reconfig: journal records move %d (%v) past the table flip (step %v); its regions did not survive the restart — remove the WAL to start over", m.ID, m.Move, m.Step)
		case !m.Aborted && m.Step == StepGrowRegions:
			// The successor regions died with the process but the table never
			// flipped: abort cleanly and journal the abort.
			m.Aborted = true
			m.Interrupted = false
			m.AbortReason = "not resumable across process restart: successor regions were lost"
		}
		en := &moveEntry{MoveState: m}
		c.ledger = append(c.ledger, en)
		if m.ID > c.nextID {
			c.nextID = m.ID
		}
		if m.Aborted {
			c.stats.Aborts++
		}
		c.stats.Resumes += m.Resumes
		if en.InFlight() {
			if c.inFlight != nil {
				return fmt.Errorf("reconfig: journal records two in-flight moves (%d and %d)", c.inFlight.ID, en.ID)
			}
			en.Interrupted = true
			c.inFlight = en
		}
		c.recordLocked(en)
	}
	return nil
}
