package history

import (
	"sync"

	"spacebounds/internal/value"
)

// Recorders keeps one Recorder per register name, all stamping from one
// Clock, and is where a routed operation enters the histories: the live
// sharded workload and the simulator both record through it. A reconfigured
// register's history is the union of what its lineage recorded, and Merge
// orders that union by invocation time, which is sound only if an operation
// that returned before another was invoked carries the smaller stamp
// whichever recorder took it — hence one clock for every recorder. A name
// seen mid-run (a successor a move installed) gets its recorder on first use.
// Recorders is safe for concurrent use; a nil *Recorders records nothing.
type Recorders struct {
	mu    sync.Mutex
	clock Clock
	recs  map[string]*Recorder
}

// NewRecorders returns an empty set whose recorders stamp from clock (nil:
// each recorder counts on its own).
func NewRecorders(clock Clock) *Recorders {
	return &Recorders{clock: clock, recs: make(map[string]*Recorder)}
}

// For returns name's recorder, making it on first use.
func (rs *Recorders) For(name string) *Recorder {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.recs[name]
	if !ok {
		rec = NewRecorder()
		rec.SetClock(rs.clock)
		rs.recs[name] = rec
	}
	return rec
}

// Get returns name's recorder, or nil if nothing was recorded under name.
func (rs *Recorders) Get(name string) *Recorder {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.recs[name]
}

// Now reads the shared clock, for an invocation stamp taken before the
// operation is routed (0 without a clock or on a nil set).
func (rs *Recorders) Now() int64 {
	if rs == nil || rs.clock == nil {
		return 0
	}
	return rs.clock()
}

// Pending is a routed operation between its invocation and its return.
type Pending struct {
	rec, fbRec *Recorder
	op, fbOp   *Op
}

// BeginWrite records the invocation of client's write of v on the register
// name. invoked is the invocation stamp from Now; 0 stamps it as it is
// recorded, on name's recorder.
func (rs *Recorders) BeginWrite(client int, invoked int64, name string, v value.Value) Pending {
	if rs == nil {
		return Pending{}
	}
	p := Pending{rec: rs.For(name)}
	p.op = p.rec.BeginWrite(client, v)
	p.rec.restamp(p.op, invoked)
	return p
}

// BeginRead records the invocation of client's read routed to the register
// route and, for a dual-epoch read (fallback is not ""), also on fallback's.
// EndRead completes the read only in the history of the register that
// answered it, so a read the fallback answered stays out of the successor's
// lineage: after a merge, the fallback may be a pruned branch. The copy that
// did not answer stays incomplete, which constrains no checker. invoked is as
// for BeginWrite; with 0 each copy is stamped on its own recorder.
func (rs *Recorders) BeginRead(client int, invoked int64, route, fallback string) Pending {
	if rs == nil {
		return Pending{}
	}
	p := Pending{rec: rs.For(route)}
	p.op = p.rec.BeginRead(client)
	p.rec.restamp(p.op, invoked)
	if fallback != "" {
		p.fbRec = rs.For(fallback)
		p.fbOp = p.fbRec.BeginRead(client)
		p.fbRec.restamp(p.fbOp, invoked)
	}
	return p
}

// EndWrite records the write's return.
func (p Pending) EndWrite() {
	if p.rec != nil {
		p.rec.EndWrite(p.op)
	}
}

// EndRead records the read's return with the value v, on the fallback's
// recorder when the fallback answered (fell), on the route's otherwise.
func (p Pending) EndRead(v value.Value, fell bool) {
	switch {
	case fell && p.fbRec != nil:
		p.fbRec.EndRead(p.fbOp, v)
	case !fell && p.rec != nil:
		p.rec.EndRead(p.op, v)
	}
}

// Stitch returns the history of a register checked across reconfiguration:
// the histories its lineage recorded, oldest first, merged by Merge. A name
// that recorded nothing adds nothing.
func (rs *Recorders) Stitch(v0 value.Value, lineage []string) *History {
	var chain []*History
	for _, name := range lineage {
		if rec := rs.Get(name); rec != nil {
			chain = append(chain, rec.History(v0))
		}
	}
	return Merge(v0, chain...)
}
