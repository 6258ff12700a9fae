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
// other way around) for the same reason clusterMetrics does: the cluster is
// the attachment point, and it must not depend on how durability is
// implemented.
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

// durableReporter adapts a journal's on-disk footprint to
// storagecost.Reporter so snapshots carry the durability axis.
type durableReporter struct{ j Journal }

// StorageBlocks implements storagecost.Reporter.
func (r durableReporter) StorageBlocks() []storagecost.BlockInfo { return r.j.DurableBlocks() }

// journalHolder wraps the Journal interface so a single atomic pointer
// swap attaches or detaches it (same pattern as clusterMetrics). The
// TracedJournal extension is resolved once at attach time, keeping the type
// assertion off the apply path.
type journalHolder struct {
	j  Journal
	tj TracedJournal // nil when j does not implement the extension
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
	c.jour.Store(h)
}

// journalApply reports one applied RMW to the attached journal, if any, with
// the applying operation's trace context: a sampled apply reaches a
// TracedJournal through the extension so the journal's stages join the
// operation's trace, and everything else takes the plain path. Only
// object.applyLocked calls it, under the object's apply lock, which is what
// serializes the journal's record order with the apply order.
func (c *Cluster) journalApply(object int, rmw RMW, tc trace.Context) {
	h := c.jour.Load()
	if h == nil {
		return
	}
	if tc.Sampled() && h.tj != nil {
		h.tj.RecordApplyTraced(object, rmw, tc)
		return
	}
	h.j.RecordApply(object, rmw)
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
