package reconfig

import (
	"fmt"
	"strings"
	"time"

	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// MoveStep enumerates the migration protocol's steps in execution order. The
// per-move ledger records the last *completed* step, so a controller crash at
// any point leaves a record from which Resume can re-drive the move
// idempotently: every step is either atomic with respect to controller
// crashes (pure table work executed between scheduling points) or replayable
// (waits re-wait, and the seed re-writes the ledger-recorded value at the
// fixed seed timestamp).
type MoveStep int

// Migration steps. Split, drain and merge run every one of them.
const (
	// StepPlanned: the ledger entry exists; nothing has been executed.
	StepPlanned MoveStep = iota
	// StepGrowRegions: successor regions are built and recorded in the entry.
	StepGrowRegions
	// StepTableFlip: the routing table atomically installed the successors
	// (seeding) and marked the sources draining.
	StepTableFlip
	// StepDrain: no live client holds a write pinned to any source.
	StepDrain
	// StepChooseValue: the migrated value (and, for a merge, the
	// value-ordering winner) is read from the drained sources and recorded in
	// the entry. Recording happens before any seed RMW is issued: a crashed
	// client's late-landing RMW may still change a drained source between
	// interrupted attempts, so re-reading at resume could choose a different
	// value — every attempt that ever seeds must seed the recorded one.
	StepChooseValue
	// StepSeed: every successor received the recorded value at the fixed seed
	// timestamp.
	StepSeed
	// StepActivate: successors are active (writes admitted, reads single-epoch).
	StepActivate
	// StepRetire: sources are drained of readers and their regions retired;
	// the move is complete.
	StepRetire
)

// String implements fmt.Stringer.
func (s MoveStep) String() string {
	switch s {
	case StepPlanned:
		return "planned"
	case StepGrowRegions:
		return "grow-regions"
	case StepTableFlip:
		return "table-flip"
	case StepDrain:
		return "drain"
	case StepChooseValue:
		return "choose-value"
	case StepSeed:
		return "seed"
	case StepActivate:
		return "activate"
	case StepRetire:
		return "retire"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// MoveState is one ledger entry: everything Resume needs to re-drive an
// interrupted move from its last completed step, plus the outcome counters
// tests and fingerprints pin. It is the in-memory stand-in for a persisted
// migration log record.
type MoveState struct {
	// ID numbers ledger entries in creation order, starting at 1.
	ID int
	// Move is the move being executed.
	Move Move
	// Sources are the shard names being migrated away from (two for a merge).
	Sources []string
	// Successors are the successor shard names, recorded when their regions
	// are grown.
	Successors []string
	// Winner is the merge value-ordering winner (empty for other kinds until
	// the value is chosen, equal to Sources[0] for single-source moves after
	// it).
	Winner string
	// SeedValue is the recorded migrated value, fixed before the first seed
	// RMW is issued so every (re-)seed attempt writes the identical value.
	SeedValue value.Value
	// SeedChosen reports whether SeedValue has been recorded (the zero value
	// is a legal register value, so presence needs its own flag).
	SeedChosen bool
	// Step is the last completed step.
	Step MoveStep
	// Epoch is the routing epoch the table flip installed (0 before the flip).
	Epoch int64
	// FlipStep is the cluster's logical time at the flip.
	FlipStep int64
	// Resumes counts how many times an interrupted execution of this move was
	// taken over by Resume.
	Resumes int
	// Interrupted marks a move whose driver died (the step failed with an
	// interruption, not a migration error); the entry stays in flight and
	// Resume may take it over.
	Interrupted bool
	// Aborting marks a move whose rollback has started but not finished: the
	// abort cause is recorded (AbortReason), and the table and successor
	// regions may be partway unwound. The entry stays in flight; a driver that
	// dies mid-abort leaves it Aborting+Interrupted, and Resume re-drives the
	// rollback (idempotent table unwind, then region retirement) instead of
	// the forward path.
	Aborting bool
	// Aborted marks a cleanly rolled-back move: the table is back to the
	// pre-flip state and the successor regions are retired.
	Aborted bool
	// AbortReason is the cause of the abort ("" otherwise).
	AbortReason string
	// Done marks a completed move.
	Done bool
}

// InFlight reports whether the move is neither completed nor aborted.
func (m MoveState) InFlight() bool { return !m.Done && !m.Aborted }

// String implements fmt.Stringer; ledger lines feed the run fingerprint.
func (m MoveState) String() string {
	status := "in-flight"
	switch {
	case m.Done:
		status = "done"
	case m.Aborted:
		status = "aborted(" + m.AbortReason + ")"
	case m.Aborting:
		status = "aborting(" + m.AbortReason + ")"
	case m.Interrupted:
		status = "interrupted"
	}
	return fmt.Sprintf("move %d: %v sources=%v successors=%v winner=%q step=%v epoch=%d resumes=%d %s",
		m.ID, m.Move, m.Sources, m.Successors, m.Winner, m.Step, m.Epoch, m.Resumes, status)
}

// moveEntry is the coordinator's mutable ledger record: the public MoveState
// plus the driver-ownership token that keeps a superseded driver (a crashed
// controller unwinding at shutdown) from mutating the ledger or the routing
// table after a resumed driver took the move over.
type moveEntry struct {
	MoveState
	owner int64

	// stepStart is the instant the entry's last step completed (or the move
	// began / resumed); the metrics and trace layers use it to time the next
	// step.
	stepStart time.Time

	// traceCtx is the move's trace, opened when the move begins or resumes on
	// a traced coordinator; each completed step records a StageReconfig span
	// on it.
	traceCtx trace.Context
}

// mergeName returns the canonical successor name of a merge move.
func mergeName(a, b string) string { return strings.Join([]string{a, b}, "+") }
