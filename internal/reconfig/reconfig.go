// Package reconfig is the epoch-based dynamic-reconfiguration subsystem: it
// executes elastic resharding moves — splitting a shard across fresh
// base-object regions, merging two shards back into one, draining a shard
// onto replacement nodes — against a live shard.Set with state migrated, not
// lost. Every move is one Move of one of those three kinds, checked by
// Move.Validate and driven by Coordinator.Apply (ApplyLive in a live process).
//
// The migration protocol for a split, drain or merge of source shard(s) into
// successors is:
//
//  1. Grow: build the successor registers and extend the cluster with their
//     regions (dsys.ExtendObjects). They are not routed yet.
//  2. Flip: atomically install the successors as seeding routes and mark the
//     sources draining (Router.InstallSuccessors / InstallMergeSuccessor —
//     one epoch). From here on, writes for the sources' keys are held for
//     the successors and reads consult both epochs.
//  3. Drain: wait until no live client has a write pinned to a source.
//     Writes by crashed clients are excluded — they are incomplete
//     operations, which the consistency conditions treat as concurrent with
//     everything after their invocation, so the migration may miss them.
//  4. Seed: the migration writer reads each source's latest value — the
//     drain guarantees it supersedes every completed write — and writes the
//     chosen value into each successor at the fixed register.SeedTS. For a
//     merge the two latest values are ordered by (installation epoch,
//     register timestamp), the same lexicographic rule dual-epoch reads use,
//     with the lexicographically smaller shard name breaking full ties; the
//     winner seeds the single successor and becomes its lineage parent,
//     while the loser's history ends at the merge (a pruned branch). Because
//     writes were held, the seed is each successor's first write; every
//     later client write strictly supersedes it. Seed writes are not
//     recorded in histories: a read returning the migrated value is
//     justified by the original write in the winner's history.
//  5. Activate: mark every successor seeded (writes admitted, reads stop
//     consulting the sources), wait for the sources' fallback reads to
//     drain, retire the source regions.
//
// Every move writes a per-move step ledger (MoveState): the entry records
// the last completed step, the successor names, the flip epoch, the merge
// winner and the chosen seed value. The controller executing a move can die
// at any scheduling point; Coordinator.Resume takes the in-flight entry over
// and re-drives it from its last completed step. Each step is idempotent
// under replay: table work is atomic with respect to controller crashes (no
// scheduling point inside), drain waits simply re-wait, and the seed is an
// idempotent write — the value is recorded in the ledger before the first
// seed RMW is issued (a drained source is not frozen: a crashed client's
// in-flight RMW can still land between interrupted attempts, so resume must
// never re-read), and register.SeedTS fixes the timestamp, so every seed
// attempt installs the identical ⟨timestamp, value⟩ pair no matter how many
// interrupted attempts raced it (see register.SeedWriter).
//
// The executor is mode-agnostic: a Runner supplies the two capabilities that
// differ between the live store and the deterministic simulator — running a
// register operation as the migration client against a region, and waiting
// for a condition. The live runner blocks; the controlled runner yields to
// the scheduler, which keeps simulation runs a pure function of the seed.
package reconfig

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// MoveKind enumerates reconfiguration moves.
type MoveKind int

// Move kinds. The numbers are journaled in move records and feed simulator
// fingerprints, so they are pinned: 3 and 4 were the dedicated-key fork's add
// and remove (gone since PR 29) and stay unused.
const (
	// MoveSplit replaces one shard by two successors on fresh regions; its
	// keyspace is re-partitioned between them and its latest value is
	// migrated into both.
	MoveSplit MoveKind = 1
	// MoveDrain replaces one shard by a single successor on a fresh region
	// (same routing position): evacuate the nodes, keep the data.
	MoveDrain MoveKind = 2
	// MoveMerge replaces two shards by a single successor on a fresh region —
	// the inverse of a split. Keys of both sources route to the successor,
	// which is seeded with the value-ordering winner's latest value.
	MoveMerge MoveKind = 5
)

// String implements fmt.Stringer.
func (k MoveKind) String() string {
	switch k {
	case MoveSplit:
		return "split"
	case MoveDrain:
		return "drain"
	case MoveMerge:
		return "merge"
	default:
		return fmt.Sprintf("move(%d)", int(k))
	}
}

// Move is one reconfiguration move: the kind and the source shard (for
// MoveMerge, the two source shards).
type Move struct {
	Kind  MoveKind
	Shard string
	// Shard2 is the second merge source (MoveMerge only).
	Shard2 string
}

// String implements fmt.Stringer.
func (m Move) String() string {
	if m.Kind == MoveMerge {
		return fmt.Sprintf("%v %s+%s", m.Kind, m.Shard, m.Shard2)
	}
	return fmt.Sprintf("%v %s", m.Kind, m.Shard)
}

// Validate checks the move's shape: a split or a drain names exactly one
// shard, a merge two distinct ones, and no other kind exists. Whether the
// named shards exist and can migrate is checked when the move runs.
func (m Move) Validate() error {
	switch m.Kind {
	case MoveSplit, MoveDrain:
		if m.Shard == "" || m.Shard2 != "" {
			return fmt.Errorf("reconfig: %v move must name exactly one shard", m.Kind)
		}
	case MoveMerge:
		if m.Shard == "" || m.Shard2 == "" || m.Shard == m.Shard2 {
			return fmt.Errorf("reconfig: merge move must name two distinct shards")
		}
	default:
		return fmt.Errorf("reconfig: unknown move kind %v", m.Kind)
	}
	return nil
}

// Event records one applied move for introspection, fingerprints and tests.
type Event struct {
	Kind  MoveKind
	Shard string
	// Shard2 is the second source of a merge ("" otherwise).
	Shard2     string
	Successors []string
	// Epoch is the routing epoch the move's flip installed.
	Epoch int64
	// Step is the cluster's logical time at the flip.
	Step int64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	src := e.Shard
	if e.Shard2 != "" {
		src += "+" + e.Shard2
	}
	return fmt.Sprintf("epoch %d step %d: %v %s -> %v", e.Epoch, e.Step, e.Kind, src, e.Successors)
}

// Stats aggregates the subsystem's counters.
type Stats struct {
	// Epoch is the current routing epoch.
	Epoch int64
	// Splits, Drains, Merges count completed moves.
	Splits, Drains, Merges int
	// Resumes counts interrupted moves taken over by Resume.
	Resumes int
	// Aborts counts cleanly rolled-back moves.
	Aborts int
	// SeedWrites counts migration-writer replays into successors.
	SeedWrites int
	// FallbackReads counts dual-epoch reads answered by the old epoch.
	FallbackReads int64
	// HeldWrites counts write acquisitions that waited for a seeding
	// successor.
	HeldWrites int64
}

// ErrInterrupted marks a migration step failure that means "the controller
// died", not "the move failed": the ledger keeps the move in flight —
// nothing is rolled back — and Resume may re-drive it. The dsys halt error
// is classified the same way, since a controlled-mode controller crashed by
// the scheduler only observes it when the cluster shuts down.
var ErrInterrupted = errors.New("reconfig: migration interrupted")

// errMoveInFlight is returned by begin while another move is in flight (the
// coordinator serializes moves; resume or finish the current one first).
var errMoveInFlight = errors.New("reconfig: a move is already in flight")

// ErrNotMigratable marks a source register that lacks the timestamped read
// migration requires.
var ErrNotMigratable = errors.New("reconfig: register cannot be migrated (no timestamped read)")

// ErrNoSeedWriter marks a successor register that lacks the idempotent seed
// write migration requires.
var ErrNoSeedWriter = errors.New("reconfig: register has no idempotent seed write")

// errSuperseded is returned by a driver whose move was taken over by Resume;
// it must not touch the ledger or the routing table again.
var errSuperseded = errors.New("reconfig: move driver superseded by resume")

// IsInterruption reports whether a move error means the driver itself is
// done for — dead, superseded by a resumer, or halted with the cluster — and
// a *different* driver must Resume the in-flight move. A genuine step
// failure at a stage with no rollback also leaves the move in flight, but
// its error is NOT an interruption: the driver is alive and the move is
// still its responsibility to Resume.
func IsInterruption(err error) bool {
	return errors.Is(err, ErrInterrupted) || errors.Is(err, dsys.ErrHalted) || errors.Is(err, errSuperseded)
}

// Runner supplies the execution context for migration steps. The live store
// and the deterministic simulator differ only here.
type Runner interface {
	// RunOn executes fn as the migration client scoped to sh's object region.
	RunOn(sh *shard.Shard, fn func(h *dsys.ClientHandle) error) error
	// Wait blocks until check() reports true. Controlled-mode runners yield
	// to the scheduler between checks so the wait is itself schedulable.
	Wait(check func() bool) error
	// Checkpoint is a bare scheduling point: controlled-mode runners yield
	// once so the scheduler can interleave (or crash) the driver between two
	// ledger-recorded stages — the abort rollback uses it to make each of its
	// stages individually interruptible. Live runners return nil immediately.
	Checkpoint() error
}

// liveRunner runs migration steps inline against a live-mode set.
type liveRunner struct {
	set    *shard.Set
	client int
}

// NewLiveRunner returns a Runner for a live-mode set; client is the migration
// writer's client ID (it must not collide with application client IDs, since
// it stamps the seed writes' timestamps).
func NewLiveRunner(set *shard.Set, client int) Runner {
	return &liveRunner{set: set, client: client}
}

// RunOn implements Runner.
func (r *liveRunner) RunOn(sh *shard.Shard, fn func(h *dsys.ClientHandle) error) error {
	return r.set.Run(r.client, sh, fn)
}

// Wait implements Runner: live drains complete in microseconds (pins are
// released as each in-flight quorum round finishes), so a short poll is all
// that is needed.
func (r *liveRunner) Wait(check func() bool) error {
	for !check() {
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// Checkpoint implements Runner: live drivers have no scheduler to yield to.
func (r *liveRunner) Checkpoint() error { return nil }

// controlledRunner runs migration steps as a controlled-mode client task,
// yielding to the scheduling policy between condition checks. Everything it
// does is therefore part of the deterministic schedule.
type controlledRunner struct {
	h *dsys.ClientHandle
}

// NewControlledRunner returns a Runner backed by a controlled-mode task's
// whole-cluster handle (the migration steps derive region scopes via Sub).
func NewControlledRunner(h *dsys.ClientHandle) Runner {
	return &controlledRunner{h: h}
}

// RunOn implements Runner.
func (r *controlledRunner) RunOn(sh *shard.Shard, fn func(h *dsys.ClientHandle) error) error {
	sub, err := r.h.Sub(sh.Base, sh.Span)
	if err != nil {
		return err
	}
	return fn(sub)
}

// Wait implements Runner.
func (r *controlledRunner) Wait(check func() bool) error {
	for !check() {
		if err := r.h.Yield(); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint implements Runner: one yield, so the stage boundary is a real
// scheduling point the adversary can land a controller crash on.
func (r *controlledRunner) Checkpoint() error { return r.h.Yield() }

// Coordinator executes moves against one shard.Set, writes the per-move step
// ledger, and aggregates events and stats. Moves are serialized — at most one
// is in flight — but an in-flight move whose driver died can be taken over by
// Resume from its last completed step.
type Coordinator struct {
	set *shard.Set

	mu        sync.Mutex
	stats     Stats
	events    []Event
	ledger    []*moveEntry
	inFlight  *moveEntry
	nextID    int
	nextOwner int64

	// liveMu serializes the live drivers (ApplyLive, ResumeLive): operators
	// and recovery both push moves through the one coordinator, one at a
	// time. liveRuns counts the migration-writer
	// incarnations handed out under it.
	liveMu   sync.Mutex
	liveRuns int

	inst instruments // the set's cluster's registry and tracer

	// jour, when non-nil, journals every ledger transition (see SetJournal).
	jour atomic.Pointer[moveJournalHolder]
}

// NewCoordinator returns a coordinator for the set, instrumented with the
// registry and tracer of the set's cluster.
func NewCoordinator(set *shard.Set) *Coordinator {
	return &Coordinator{set: set, inst: newInstruments(set.Cluster())}
}

// Stats returns the aggregated counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Epoch = c.set.Router().Epoch()
	st.FallbackReads = c.set.FallbackReads()
	st.HeldWrites = c.set.Router().HeldWrites()
	return st
}

// Events returns the applied moves in order.
func (c *Coordinator) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Ledger returns a copy of every move's ledger entry in creation order,
// completed and aborted moves included.
func (c *Coordinator) Ledger() []MoveState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MoveState, len(c.ledger))
	for i, en := range c.ledger {
		out[i] = en.MoveState
	}
	return out
}

// InFlight returns a copy of the in-flight move's ledger entry, or nil.
func (c *Coordinator) InFlight() *MoveState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inFlight == nil {
		return nil
	}
	st := c.inFlight.MoveState
	return &st
}

// Apply executes one move end to end and returns its event. A move whose
// driver dies mid-way (IsInterruption on the error) stays in the ledger for
// Resume; a move that fails for any other reason is cleanly aborted.
func (c *Coordinator) Apply(r Runner, mv Move) (Event, error) {
	en, err := c.begin(mv)
	if err != nil {
		return Event{}, err
	}
	return c.drive(r, en, en.owner)
}

// Resume takes over the in-flight move, if any, and re-drives it from its
// last completed step. The caller asserts that the previous driver is dead
// (crashed by the scheduler, or its step failed with an interruption); the
// superseded driver can never mutate the ledger or the routing table again.
// It reports whether a move was taken over.
func (c *Coordinator) Resume(r Runner) (bool, Event, error) {
	c.mu.Lock()
	en := c.inFlight
	if en == nil {
		c.mu.Unlock()
		return false, Event{}, nil
	}
	c.nextOwner++
	owner := c.nextOwner
	en.owner = owner
	en.Resumes++
	en.Interrupted = false
	// Restart the step clock: the gap since the interruption is operator
	// time, not step time.
	en.stepStart = time.Now()
	c.inst.openTrace(en)
	c.stats.Resumes++
	c.recordLocked(en)
	c.mu.Unlock()
	ev, err := c.drive(r, en, owner)
	return true, ev, err
}

// migrationClientBase is the first migration-writer client ID. Every live
// driver incarnation gets the next ID of the block, so a resumed move's seed
// writes never share a timestamp client component with the driver that died;
// the block sits clear of application clients and below the batcher lanes at
// 1<<30.
const migrationClientBase = 1 << 28

// liveRunner returns a live runner under a fresh migration-writer client ID.
// Caller holds c.liveMu.
func (c *Coordinator) liveRunner() Runner {
	id := migrationClientBase + c.liveRuns
	c.liveRuns++
	return NewLiveRunner(c.set, id)
}

// ApplyLive is Apply for a live-mode set: it runs the move inline under the
// coordinator's own driver lock and a fresh migration-writer client ID, so
// every live caller of one process shares one serialization and one ID block.
func (c *Coordinator) ApplyLive(mv Move) (Event, error) {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	return c.Apply(c.liveRunner(), mv)
}

// ResumeLive re-drives, on a live-mode set, a move whose driver died
// mid-migration, picking up from the ledger's last completed step, until no
// interrupted move is left. It reports how many moves it took over. A move
// that is in flight but not interrupted belongs to a live driver and is left
// alone.
func (c *Coordinator) ResumeLive() (int, error) {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	resumed := 0
	for {
		if fl := c.InFlight(); fl == nil || !fl.Interrupted {
			return resumed, nil
		}
		took, _, err := c.Resume(c.liveRunner())
		if err != nil {
			return resumed, err
		}
		if took {
			resumed++
		}
	}
}

// begin validates the move shape and opens its ledger entry.
func (c *Coordinator) begin(mv Move) (*moveEntry, error) {
	if err := mv.Validate(); err != nil {
		return nil, err
	}
	sources := []string{mv.Shard}
	if mv.Kind == MoveMerge {
		sources = append(sources, mv.Shard2)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inFlight != nil {
		return nil, fmt.Errorf("%w: move %v (resume it first)", errMoveInFlight, c.inFlight.Move)
	}
	c.nextID++
	c.nextOwner++
	en := &moveEntry{MoveState: MoveState{ID: c.nextID, Move: mv, Sources: sources}, owner: c.nextOwner, stepStart: time.Now()}
	c.inst.openTrace(en)
	c.ledger = append(c.ledger, en)
	c.inFlight = en
	c.recordLocked(en)
	return en, nil
}

// owns reports whether the driver token still owns the entry.
func (c *Coordinator) owns(en *moveEntry, owner int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return en.owner == owner
}

// advance records the completion of a step (plus any entry mutation) unless
// the driver was superseded.
func (c *Coordinator) advance(en *moveEntry, owner int64, step MoveStep, mut func(*MoveState)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en.owner != owner {
		return false
	}
	if mut != nil {
		mut(&en.MoveState)
	}
	if step > en.Step {
		en.Step = step
		c.inst.stepDone(en, step)
		en.stepStart = time.Now()
	}
	c.recordLocked(en)
	return true
}

// markInterrupted leaves the entry in flight for Resume.
func (c *Coordinator) markInterrupted(en *moveEntry, owner int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en.owner == owner {
		en.Interrupted = true
		c.inst.countOutcome(en.Move.Kind, "interrupted")
		c.recordLocked(en)
	}
}

// markAborted closes the entry as cleanly rolled back.
func (c *Coordinator) markAborted(en *moveEntry, owner int64, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en.owner != owner {
		return
	}
	en.Aborted = true
	en.AbortReason = cause.Error()
	if c.inFlight == en {
		c.inFlight = nil
	}
	c.stats.Aborts++
	c.inst.countOutcome(en.Move.Kind, "aborted")
	c.recordLocked(en)
}

// finish closes the entry as done, records the event and bumps the per-kind
// counters. It reports false for a superseded driver.
func (c *Coordinator) finish(en *moveEntry, owner int64, ev Event, seeds int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en.owner != owner {
		return false
	}
	en.Done = true
	if c.inFlight == en {
		c.inFlight = nil
	}
	c.events = append(c.events, ev)
	c.stats.SeedWrites += seeds
	switch ev.Kind {
	case MoveSplit:
		c.stats.Splits++
	case MoveDrain:
		c.stats.Drains++
	case MoveMerge:
		c.stats.Merges++
	}
	c.inst.countOutcome(en.Move.Kind, "done")
	c.recordLocked(en)
	return true
}

// interrupt marks the entry in flight for Resume and wraps the step failure.
func (c *Coordinator) interrupt(en *moveEntry, owner int64, ev Event, err error) (Event, error) {
	c.markInterrupted(en, owner)
	if IsInterruption(err) {
		return ev, fmt.Errorf("%w: %v interrupted at step %v: %v", ErrInterrupted, en.Move, en.Step, err)
	}
	// A genuine failure at a stage with no rollback (the pre-retire waits,
	// RetireShard) also leaves the entry resumable — but the error must keep
	// its identity. Wrapping it in ErrInterrupted here would tell a live
	// driver it was superseded, and a driver with no standby behind it would
	// walk away from a move that is still its responsibility; the caller
	// distinguishes "I am dead or superseded" (IsInterruption) from "my step
	// failed; the move is interrupted and mine to Resume".
	return ev, fmt.Errorf("%v interrupted at step %v: %w", en.Move, en.Step, err)
}

// stepErr routes a step failure: interruptions leave the entry in flight for
// Resume, everything else aborts via the caller-supplied rollback.
func (c *Coordinator) stepErr(en *moveEntry, owner int64, ev Event, err error, abort func(error) (Event, error)) (Event, error) {
	if IsInterruption(err) {
		return c.interrupt(en, owner, ev, err)
	}
	return abort(err)
}

// beginAbort records that the entry's rollback has started (Aborting plus the
// cause), unless the driver was superseded. Recording happens before any
// unwind work so a driver crashed at any later point leaves an entry Resume
// recognizes as mid-abort and re-drives through driveAbort, never forward.
func (c *Coordinator) beginAbort(en *moveEntry, owner int64, cause error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en.owner != owner {
		return false
	}
	if !en.Aborting {
		en.Aborting = true
		en.AbortReason = cause.Error()
		c.recordLocked(en)
	}
	return true
}

// driveAbort executes (or resumes) the rollback of a flipped-but-not-activated
// move: the routing table goes back to its pre-flip state and the successor
// regions are retired. It is safe at any interleaving because writes were held
// for the successors throughout — no client state can have reached them — and
// every stage is idempotent: the router's abort operations gate on route state
// (a repeat is a no-op), and retiring retired objects is harmless. The runner
// checkpoints between stages are real scheduling points, so a controller can
// crash mid-rollback and leave the entry Aborting+Interrupted; Resume finishes
// the rollback from the top, re-running completed stages as no-ops.
func (c *Coordinator) driveAbort(r Runner, en *moveEntry, owner int64, ev Event, cause error) (Event, error) {
	set, rt := c.set, c.set.Router()
	mv := en.Move
	if !c.beginAbort(en, owner, cause) {
		return ev, errSuperseded
	}
	if err := r.Checkpoint(); err != nil {
		return c.interrupt(en, owner, ev, err)
	}
	if !c.owns(en, owner) {
		return ev, errSuperseded
	}
	// Stage 1: roll the routing table back.
	if mv.Kind == MoveMerge {
		rt.AbortMerge(mv.Shard, mv.Shard2)
	} else {
		rt.AbortSuccessors(mv.Shard)
	}
	// Stage 2: drain successor readers. The rollback made the successors
	// unroutable, so no new pin can appear — but a dual-epoch reader that
	// pinned a seeding successor before the rollback may still be mid-RMW on
	// its region, and retiring the region out from under it would strand the
	// RMW (and with it the reader's fallback pin on the source) forever.
	// Regions are only ever decommissioned once no live client can be mid-RMW
	// on them; this wait is the abort-path mirror of the forward path's
	// pre-retire drain. Write pins need no wait: a successor is Seeding for
	// its whole abortable window, and seeding routes hold writes off.
	if err := r.Wait(func() bool { return c.readsDrained(en.Successors) }); err != nil {
		return c.interrupt(en, owner, ev, err)
	}
	if !c.owns(en, owner) {
		return ev, errSuperseded
	}
	// Stage 3: decommission the successor regions and close the entry.
	for _, name := range en.Successors {
		if sh := set.Region(name); sh != nil {
			_ = set.Cluster().RetireObjects(sh.Base, sh.Span)
		}
	}
	c.markAborted(en, owner, cause)
	return ev, fmt.Errorf("migration of %v aborted: %w", mv, cause)
}

// freeName returns base, or — when an earlier aborted migration already
// burned it (aborted successors stay registered as retired routes) — the
// first free "base~N" variant, so a shard can always be migrated again after
// an abort.
func freeName(set *shard.Set, base string) string {
	name := base
	for n := 2; set.Router().RouteOf(name) != nil; n++ {
		name = fmt.Sprintf("%s~%d", base, n)
	}
	return name
}

// crashedClients returns the scheduler-crashed client set (empty in live
// mode); drains exclude their unreleasable pins.
func (c *Coordinator) crashedClients() map[int]bool {
	out := make(map[int]bool)
	for _, cl := range c.set.Cluster().CrashedClients() {
		out[cl] = true
	}
	return out
}

// eventOf reconstructs a move's event from its ledger entry, so a resumed
// driver reports the identical event the original flip produced.
func eventOf(st MoveState) Event {
	return Event{
		Kind: st.Move.Kind, Shard: st.Move.Shard, Shard2: st.Move.Shard2,
		Successors: append([]string(nil), st.Successors...),
		Epoch:      st.Epoch, Step: st.FlipStep,
	}
}

// retireRegions decommissions successor regions (and retires their routes,
// when any were installed) after a failed or aborted grow/flip.
func (c *Coordinator) retireRegions(names []string) {
	for _, name := range names {
		sh := c.set.Region(name)
		if sh == nil {
			continue
		}
		c.set.Router().MarkRetired(name) // no-op when the route was never installed
		_ = c.set.Cluster().RetireObjects(sh.Base, sh.Span)
	}
}

// seedInto replays v into the successor at the fixed seed timestamp.
func seedInto(r Runner, succ *shard.Shard, v value.Value) error {
	sw, ok := succ.Reg.(register.SeedWriter)
	if !ok {
		return fmt.Errorf("successor %q (register %s): %w", succ.Name, succ.Reg.Name(), ErrNoSeedWriter)
	}
	return r.RunOn(succ, func(h *dsys.ClientHandle) error { return sw.WriteSeed(h, v) })
}

// writesDrained reports whether every named source's write pins are released
// by all live clients.
func (c *Coordinator) writesDrained(names []string) bool {
	crashed := c.crashedClients()
	for _, name := range names {
		if !c.set.Router().WritesDrained(name, crashed) {
			return false
		}
	}
	return true
}

// readsDrained is writesDrained for read pins.
func (c *Coordinator) readsDrained(names []string) bool {
	crashed := c.crashedClients()
	for _, name := range names {
		if !c.set.Router().ReadsDrained(name, crashed) {
			return false
		}
	}
	return true
}

// asTimestamped is the single capability check for migration sources: the
// dual-epoch read and the value-ordering rule both need the register's
// internal timestamp.
func asTimestamped(sh *shard.Shard) (register.TimestampedReader, error) {
	tr, ok := sh.Reg.(register.TimestampedReader)
	if !ok {
		return nil, fmt.Errorf("shard %q (register %s): %w", sh.Name, sh.Reg.Name(), ErrNotMigratable)
	}
	return tr, nil
}

// seedValue returns the entry's ledger-recorded migrated value.
func (c *Coordinator) seedValue(en *moveEntry) (value.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return en.SeedValue, en.SeedChosen
}

// latestOf reads a source's latest value and timestamp as the migration
// client. The source is drained and unroutable for writes, but NOT frozen —
// a crashed client's in-flight RMW may still land later — which is exactly
// why the chosen value is recorded in the ledger before seeding starts
// instead of being re-read on resume.
func latestOf(r Runner, src *shard.Shard) (value.Value, register.Timestamp, error) {
	tr, err := asTimestamped(src)
	if err != nil {
		return value.Value{}, register.ZeroTS, err
	}
	var v value.Value
	var ts register.Timestamp
	err = r.RunOn(src, func(h *dsys.ClientHandle) error {
		var err error
		v, ts, err = tr.ReadTimestamped(h)
		return err
	})
	return v, ts, err
}

// drive executes (or resumes) the split/drain/merge protocol. An entry whose
// previous driver died mid-rollback resumes the rollback, never the forward
// path: the abort cause is already recorded, and re-running forward steps
// against a half-unwound table would corrupt it.
func (c *Coordinator) drive(r Runner, en *moveEntry, owner int64) (Event, error) {
	if en.Aborting {
		return c.driveAbort(r, en, owner, eventOf(en.MoveState), errors.New(en.AbortReason))
	}
	set, rt := c.set, c.set.Router()
	mv := en.Move

	// Validate the sources: they must exist and support timestamped reads
	// (dual-epoch reads and the merge ordering rule need the timestamps). A
	// fresh move aborts on a validation failure — nothing has been installed
	// yet. On a post-flip resume such a failure is an internal inconsistency
	// (sources cannot vanish between attempts): the entry is left resumable
	// rather than falsely marked aborted while the table stays flipped.
	invalid := func(cause error) (Event, error) {
		if en.Step >= StepTableFlip {
			return c.interrupt(en, owner, eventOf(en.MoveState), cause)
		}
		c.markAborted(en, owner, cause)
		return Event{}, cause
	}
	srcs := make([]*shard.Shard, len(en.Sources))
	for i, name := range en.Sources {
		sh := set.Shard(name)
		if sh == nil {
			return invalid(fmt.Errorf("%w %q", shard.ErrUnknownShard, name))
		}
		if _, err := asTimestamped(sh); err != nil {
			return invalid(err)
		}
		srcs[i] = sh
	}
	if mv.Kind == MoveMerge {
		if srcs[0].Algorithm != srcs[1].Algorithm {
			// The successor inherits one emulation, and the stitched lineage
			// is checked under that emulation's consistency condition — a
			// cross-emulation merge would smuggle a weaker prefix under a
			// stronger claim. (A re-coding merge is future work; see ROADMAP.)
			return invalid(fmt.Errorf("cannot merge %q (%s) with %q (%s): emulations differ",
				srcs[0].Name, srcs[0].Algorithm, srcs[1].Name, srcs[1].Algorithm))
		}
		if srcs[0].Reg.Config().DataLen != srcs[1].Reg.Config().DataLen {
			return invalid(fmt.Errorf("cannot merge %q (%d-byte values) with %q (%d-byte values)",
				srcs[0].Name, srcs[0].Reg.Config().DataLen, srcs[1].Name, srcs[1].Reg.Config().DataLen))
		}
	}

	// Grow: successor regions exist before the flip so the flip is purely a
	// table swap. The successor inherits the first source's emulation.
	if en.Step < StepGrowRegions {
		var bases []string
		switch mv.Kind {
		case MoveSplit:
			bases = []string{mv.Shard + "/0", mv.Shard + "/1"}
		case MoveDrain:
			bases = []string{mv.Shard + "/0"}
		case MoveMerge:
			bases = []string{mergeName(mv.Shard, mv.Shard2)}
		}
		names := make([]string, 0, len(bases))
		for _, base := range bases {
			sh, err := set.AddRegion(shard.Spec{
				Name:      freeName(set, base),
				Algorithm: srcs[0].Algorithm,
				Config:    srcs[0].Reg.Config(),
			})
			if err != nil {
				c.retireRegions(names)
				c.markAborted(en, owner, err)
				return Event{}, err
			}
			if _, ok := sh.Reg.(register.SeedWriter); !ok {
				err := fmt.Errorf("successor %q (register %s): %w", sh.Name, sh.Reg.Name(), ErrNoSeedWriter)
				c.retireRegions(append(names, sh.Name))
				c.markAborted(en, owner, err)
				return Event{}, err
			}
			names = append(names, sh.Name)
		}
		if !c.advance(en, owner, StepGrowRegions, func(st *MoveState) { st.Successors = names }) {
			return Event{}, errSuperseded
		}
	}
	succs := make([]*shard.Shard, len(en.Successors))
	for i, name := range en.Successors {
		if succs[i] = set.Region(name); succs[i] == nil {
			return Event{}, fmt.Errorf("reconfig: successor region %q vanished", name)
		}
	}

	// Flip.
	if en.Step < StepTableFlip {
		var epoch int64
		var err error
		if mv.Kind == MoveMerge {
			epoch, err = rt.InstallMergeSuccessor(mv.Shard, mv.Shard2, succs[0])
		} else {
			epoch, err = rt.InstallSuccessors(mv.Shard, succs)
		}
		if err != nil {
			c.retireRegions(en.Successors)
			c.markAborted(en, owner, err)
			return Event{}, err
		}
		flipStep := set.Cluster().LogicalTime()
		if !c.advance(en, owner, StepTableFlip, func(st *MoveState) { st.Epoch, st.FlipStep = epoch, flipStep }) {
			return Event{}, errSuperseded
		}
	}
	ev := eventOf(en.MoveState)

	// abort rolls a flipped-but-not-activated move back via the resumable,
	// checkpointed rollback (driveAbort): writes were held for the successors
	// throughout, so no client state can have reached them.
	abort := func(cause error) (Event, error) {
		return c.driveAbort(r, en, owner, ev, cause)
	}

	// Drain in-flight writes on every source.
	if en.Step < StepDrain {
		if err := r.Wait(func() bool { return c.writesDrained(en.Sources) }); err != nil {
			return c.stepErr(en, owner, ev, err, abort)
		}
		if !c.advance(en, owner, StepDrain, nil) {
			return ev, errSuperseded
		}
	}

	// Choose the migrated value and record it in the ledger before issuing
	// any seed RMW. The drained sources are not perfectly frozen — a crashed
	// client's late-landing RMW may still apply between interrupted attempts
	// — so a resumed driver must never re-read: all seed attempts have to
	// write the identical value, or the fixed seed timestamp would pin two
	// different values at once.
	if en.Step < StepChooseValue {
		winner := en.Sources[0]
		var latest value.Value
		if mv.Kind == MoveMerge {
			// Order the two latest values by (installation epoch, timestamp) —
			// the dual-epoch read's rule — breaking full ties toward the
			// lexicographically smaller shard name.
			type cand struct {
				v     value.Value
				ts    register.Timestamp
				epoch int64
				name  string
			}
			cands := make([]cand, len(srcs))
			for i, src := range srcs {
				v, ts, err := latestOf(r, src)
				if err != nil {
					return c.stepErr(en, owner, ev, err, abort)
				}
				cands[i] = cand{v: v, ts: ts, epoch: rt.RouteOf(src.Name).InstalledAt(), name: src.Name}
			}
			win := cands[0]
			for _, cd := range cands[1:] {
				switch {
				case win.epoch != cd.epoch:
					if cd.epoch > win.epoch {
						win = cd
					}
				case win.ts != cd.ts:
					if win.ts.Less(cd.ts) {
						win = cd
					}
				case cd.name < win.name:
					win = cd
				}
			}
			winner, latest = win.name, win.v
			if !c.owns(en, owner) {
				return ev, errSuperseded
			}
			if err := rt.SetMergeWinner(succs[0].Name, winner); err != nil {
				return abort(err)
			}
		} else {
			v, _, err := latestOf(r, srcs[0])
			if err != nil {
				return c.stepErr(en, owner, ev, err, abort)
			}
			latest = v
		}
		if !c.advance(en, owner, StepChooseValue, func(st *MoveState) {
			st.Winner, st.SeedValue, st.SeedChosen = winner, latest, true
		}) {
			return ev, errSuperseded
		}
	}

	// Seed every successor with the recorded value before activating any: the
	// activation below is pure table work and cannot fail, so the move is
	// all-or-nothing.
	if en.Step < StepSeed {
		latest, ok := c.seedValue(en)
		if !ok {
			return abort(fmt.Errorf("ledger entry reached seeding with no recorded value"))
		}
		for _, sh := range succs {
			if err := seedInto(r, sh, latest); err != nil {
				return c.stepErr(en, owner, ev, err, abort)
			}
		}
		if !c.advance(en, owner, StepSeed, nil) {
			return ev, errSuperseded
		}
	}

	// Activate.
	if en.Step < StepActivate {
		if !c.owns(en, owner) {
			return ev, errSuperseded
		}
		for _, sh := range succs {
			rt.MarkSeeded(sh.Name)
		}
		if !c.advance(en, owner, StepActivate, nil) {
			return ev, errSuperseded
		}
	}

	// Retire the drained sources once their fallback readers are gone. Past
	// activation the move can no longer abort — only an interruption (driver
	// death) can stop it, and Resume finishes the retirement.
	if en.Step < StepRetire {
		if err := r.Wait(func() bool { return c.readsDrained(en.Sources) }); err != nil {
			return c.interrupt(en, owner, ev, err)
		}
		if !c.owns(en, owner) {
			return ev, errSuperseded
		}
		for _, name := range en.Sources {
			if err := set.RetireShard(name); err != nil {
				// Leave the entry resumable rather than wedged: it is neither
				// done nor cleanly rolled back.
				return c.interrupt(en, owner, ev, err)
			}
		}
		if !c.advance(en, owner, StepRetire, nil) {
			return ev, errSuperseded
		}
	}
	if !c.finish(en, owner, ev, len(succs)) {
		return ev, errSuperseded
	}
	return ev, nil
}
