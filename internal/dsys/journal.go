package dsys

import (
	"fmt"

	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
)

// Journal is the durability hook a cluster drives: every mutating RMW that
// takes effect is reported to the attached journal from inside the object's
// apply critical section, so the journal's record order matches the apply
// order per object exactly. DurableBlocks feeds the journal's on-disk
// footprint into storage snapshots on the durable axis.
//
// The interface lives here (rather than the wal package importing dsys the
// other way around) because the cluster is the attachment point, and it must
// not depend on how durability is implemented. It has no optional parts: a
// decorator that embeds a Journal forwards every method it does not override,
// so it cannot drop the fail-stop check by accident.
type Journal interface {
	// RecordApply journals one applied RMW for the given global object ID.
	// It is called under the object's apply lock; implementations must not
	// call back into the cluster from it. The RMW is lent for the call: an
	// in-process round's RMWs are memory its client handle reuses for the
	// next operation (RoundMemory), so an implementation encodes what it
	// needs before it returns and keeps no reference to the RMW or its
	// parameters' lists.
	RecordApply(object int, rmw RMW)
	// RecordApplyTraced is RecordApply for an apply that belongs to a sampled
	// trace, so the journal's stages can join the operation's trace; the
	// same calling rules apply.
	RecordApplyTraced(object int, rmw RMW, tc trace.Context)
	// Refuses returns nil while the journal has recorded every RMW handed to
	// it and can record rmw, or would not record rmw at all; afterwards it
	// returns the failure, and the cluster stops letting RMWs it would have
	// recorded take effect (ErrJournalFailed), so a node never acknowledges
	// what it could not make durable. It is called under the object's apply
	// lock, before Apply and again after RecordApply.
	Refuses(rmw RMW) error
	// DurableBlocks reports the journal's current on-disk footprint for
	// storage accounting (DurableLog / DurableSnapshot locations).
	DurableBlocks() []storagecost.BlockInfo
}

// JournalTrimmer is the optional seam by which an applied RMW offers the
// journal a smaller equivalent of itself: parameters its Apply did not read
// need not reach the disk. A journal that finds the seam records the trimmed
// form in place of the RMW; one that does not records the RMW whole, and both
// logs replay to the same states.
type JournalTrimmer interface {
	RMW
	// JournalForm returns an RMW of the receiver's codec kind that, applied
	// to the state the receiver's Apply found, makes the transition that Apply
	// made; it may be the receiver itself. It is called under the object's
	// apply lock, after Apply and before any other RMW reaches the object,
	// and must leave the receiver's parameters as they are: others may still
	// be reading them.
	JournalForm() RMW
}

// NoChange is the optional seam by which an Apply's answer declares that the
// RMW left the object's state exactly as it found it. Such an RMW did not take
// effect in any way a replay could miss, so the cluster neither counts nor
// journals it.
type NoChange interface {
	// NoChange reports whether the state is unchanged and, if so, whether
	// that is because the RMW was incomplete: it lacked a parameter the
	// transition it would have made reads, and its sender is expected to send
	// it again whole.
	NoChange() (unchanged, incomplete bool)
}

// SetJournal attaches a journal to the cluster (nil detaches). Attach the
// journal before admitting traffic: applies that race with the attachment may
// or may not be recorded.
func (c *Cluster) SetJournal(j Journal) {
	if j == nil {
		c.jour.Store(nil)
		return
	}
	c.jour.Store(&j)
}

// journal returns the attached journal, or nil.
func (c *Cluster) journal() Journal {
	if p := c.jour.Load(); p != nil {
		return *p
	}
	return nil
}

// refuses reports, as ErrJournalFailed, that the journal has failed and would
// have recorded rmw.
func refuses(j Journal, rmw RMW) error {
	if err := j.Refuses(rmw); err != nil {
		return fmt.Errorf("%w: %v", ErrJournalFailed, err)
	}
	return nil
}

// record reports one applied RMW to the journal with the applying operation's
// trace context: a sampled apply goes through RecordApplyTraced so the
// journal's stages join the operation's trace, and everything else takes the
// plain path. The error is refuses' verdict afterwards: an RMW whose own
// record failed is not acknowledged either. Only object.apply calls it, under
// the object's apply lock, which is what serializes the journal's record
// order with the apply order.
func record(j Journal, object int, rmw RMW, tc trace.Context) error {
	if tc.Sampled() {
		j.RecordApplyTraced(object, rmw, tc)
	} else {
		j.RecordApply(object, rmw)
	}
	return refuses(j, rmw)
}

// ReadObjectState runs fn with the object's live state under its apply lock.
// A snapshotter uses it to observe a state that is not mid-Apply; fn must not
// retain the state past the call or invoke cluster methods.
func (c *Cluster) ReadObjectState(id int, fn func(s State)) error {
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	o := objects[id]
	if o.retired.Load() {
		return fmt.Errorf("%w: %d", ErrRetiredObject, id)
	}
	o.liveMu.Lock()
	fn(o.state)
	o.liveMu.Unlock()
	return nil
}

// RestoreObjectState replaces the object's state wholesale, bypassing the
// journal. Recovery uses it to install a decoded snapshot state before
// replaying the log suffix on top.
func (c *Cluster) RestoreObjectState(id int, s State) error {
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	o := objects[id]
	if o.retired.Load() {
		return fmt.Errorf("%w: %d", ErrRetiredObject, id)
	}
	o.liveMu.Lock()
	o.state = s
	o.liveMu.Unlock()
	return nil
}

// ReplayApply applies a journaled RMW during recovery. Unlike ApplyOne it
// deliberately ignores the crashed flag — replay happens while the object is
// still marked down, which is also what guarantees no live client races the
// replay — and it reports nothing back to the journal or the metrics, since
// the RMW was already recorded when it first applied.
func (c *Cluster) ReplayApply(id int, rmw RMW) (any, error) {
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	r, err := objects[id].apply(c, rmw, trace.Context{}, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %d", err, id)
	}
	return r, nil
}

// ObjectRetired reports whether reconfiguration retired the base object.
func (c *Cluster) ObjectRetired(id int) bool {
	return id >= 0 && id < c.N() && c.objs()[id].retired.Load()
}

// ObjectDown reports whether the base object is currently crashed. The facade
// uses it to decide whether a node restart needs a recovery replay first.
func (c *Cluster) ObjectDown(id int) bool {
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		return false
	}
	return objects[id].crashed.Load()
}
