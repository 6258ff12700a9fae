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
// not depend on how durability is implemented.
type Journal interface {
	// RecordApply journals one applied RMW for the given global object ID.
	// It is called under the object's apply lock; implementations must not
	// call back into the cluster from it.
	RecordApply(object int, rmw RMW)
	// DurableBlocks reports the journal's current on-disk footprint for
	// storage accounting (DurableLog / DurableSnapshot locations).
	DurableBlocks() []storagecost.BlockInfo
}

// TracedJournal is the optional extension a journal implements to receive the
// applying operation's trace context alongside the RMW; the WAL uses it to
// record wal-append/wal-fsync spans under the operation's trace. Journals
// that do not implement it keep working unchanged — sampled applies fall back
// to RecordApply.
type TracedJournal interface {
	Journal
	// RecordApplyTraced is RecordApply for an apply that belongs to a sampled
	// trace; the same calling rules apply (under the object's apply lock, no
	// calls back into the cluster).
	RecordApplyTraced(object int, rmw RMW, tc trace.Context)
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

// FailStopJournal is the optional extension of a journal that can lose the
// ability to record: once it has, the cluster stops letting RMWs it would
// have recorded take effect (ErrJournalFailed), so a node never acknowledges
// what it could not make durable. RMWs the journal never records — read-only
// kinds — keep being served.
type FailStopJournal interface {
	Journal
	// Refuses returns nil while the journal has recorded every RMW handed to
	// it and can record rmw, or would not record rmw at all; afterwards it
	// returns the failure. It is called under the object's apply lock, before
	// Apply and again after RecordApply.
	Refuses(rmw RMW) error
}

// durableReporter adapts a journal's on-disk footprint to
// storagecost.Reporter so snapshots carry the durability axis.
type durableReporter struct{ j Journal }

// StorageBlocks implements storagecost.Reporter.
func (r durableReporter) StorageBlocks() []storagecost.BlockInfo { return r.j.DurableBlocks() }

// journalHolder wraps the Journal interface so a single atomic pointer swap
// attaches or detaches it. The TracedJournal and FailStopJournal extensions
// are resolved once at attach time, keeping the type assertions off the apply
// path.
type journalHolder struct {
	j  Journal
	tj TracedJournal   // nil when j does not implement the extension
	fs FailStopJournal // likewise
}

// SetJournal attaches a journal to the cluster (nil detaches). Attach the
// journal before admitting traffic: applies that race with the attachment may
// or may not be recorded.
func (c *Cluster) SetJournal(j Journal) {
	if j == nil {
		c.jour.Store(nil)
		return
	}
	h := &journalHolder{j: j}
	if tj, ok := j.(TracedJournal); ok {
		h.tj = tj
	}
	if fs, ok := j.(FailStopJournal); ok {
		h.fs = fs
	}
	c.jour.Store(h)
}

// refuses reports, as ErrJournalFailed, that the journal has failed and would
// have recorded rmw. A nil holder (no journal) refuses nothing.
func (h *journalHolder) refuses(rmw RMW) error {
	if h == nil || h.fs == nil {
		return nil
	}
	if err := h.fs.Refuses(rmw); err != nil {
		return fmt.Errorf("%w: %v", ErrJournalFailed, err)
	}
	return nil
}

// record reports one applied RMW to the journal with the applying operation's
// trace context: a sampled apply reaches a TracedJournal through the extension
// so the journal's stages join the operation's trace, and everything else
// takes the plain path. The error is refuses' verdict afterwards: an RMW whose
// own record failed is not acknowledged either. Only object.apply calls
// it, under the object's apply lock, which is what serializes the journal's
// record order with the apply order.
func (h *journalHolder) record(object int, rmw RMW, tc trace.Context) error {
	if tc.Sampled() && h.tj != nil {
		h.tj.RecordApplyTraced(object, rmw, tc)
	} else {
		h.j.RecordApply(object, rmw)
	}
	return h.refuses(rmw)
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

// ObjectDown reports whether the base object is currently crashed. The facade
// uses it to decide whether a node restart needs a recovery replay first.
func (c *Cluster) ObjectDown(id int) bool {
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		return false
	}
	return objects[id].crashed.Load()
}
