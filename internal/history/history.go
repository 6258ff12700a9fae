// Package history records high-level register operation histories and checks
// them against the consistency conditions the paper works with: weak
// regularity (MWRegWeak), strong regularity (MWRegWO), and strong safety
// (Appendix A). The checkers assume that distinct write operations write
// distinct values, which the workload generators guarantee; this makes the
// "which write produced this returned value" relation unambiguous.
package history

import (
	"fmt"
	"sort"
	"sync"

	"spacebounds/internal/value"
)

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds.
const (
	Write OpKind = iota + 1
	Read
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Op is one recorded high-level operation. Invoked and Returned are logical
// times drawn from a shared monotonic counter: if op1.Returned < op2.Invoked
// then op1 precedes op2 in real time.
type Op struct {
	ID       int
	Client   int
	Kind     OpKind
	Value    value.Value // written value, or value returned by a read
	Invoked  int64
	Returned int64 // 0 while outstanding
}

// Completed reports whether the operation has returned.
func (o *Op) Completed() bool { return o.Returned != 0 }

// Precedes reports whether o completed before other was invoked (the ≺r
// relation of Appendix A).
func (o *Op) Precedes(other *Op) bool {
	return o.Completed() && o.Returned < other.Invoked
}

// String implements fmt.Stringer.
func (o *Op) String() string {
	return fmt.Sprintf("%v[c%d#%d %v @%d-%d]", o.Kind, o.Client, o.ID, o.Value, o.Invoked, o.Returned)
}

// Clock is a source of logical time for a Recorder. It must be monotonically
// non-decreasing; the recorder itself guarantees that consecutive recorded
// events get strictly increasing timestamps by advancing past ties, so a
// coarse clock (one that stands still between scheduler steps) is fine.
type Clock func() int64

// Recorder collects operations as they are invoked and return. It is safe for
// concurrent use by many client goroutines.
//
// By default events are stamped with an internal counter: a logical clock
// that totally orders the recorder's own events but bears no relation to the
// run's schedule. When the recording is driven by a deterministic scheduler —
// the fault-schedule simulator in particular — the arrival order at this
// mutex is itself scheduler-controlled, and SetClock aligns the timestamps
// with the scheduler's step counter so that recorded intervals, and therefore
// checker verdicts, are a pure function of the schedule. Wall-clock time is
// deliberately never used: it would make two runs of the same schedule
// disagree about which operations overlap.
type Recorder struct {
	mu     sync.Mutex
	last   int64
	clock  Clock
	nextID int
	ops    []*Op
}

// NewRecorder returns an empty recorder using its internal logical counter.
func NewRecorder() *Recorder { return &Recorder{} }

// SetClock installs an external logical time source. It must be called before
// recording starts.
func (r *Recorder) SetClock(c Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = c
}

// tick returns the next event timestamp: the external clock's reading when
// one is installed, advanced past the previous stamp so that the recorder's
// event order stays a strict total order even under a coarse clock.
func (r *Recorder) tick() int64 {
	var t int64
	if r.clock != nil {
		t = r.clock()
	}
	if t <= r.last {
		t = r.last + 1
	}
	r.last = t
	return t
}

// BeginWrite records the invocation of a write of v by the given client.
func (r *Recorder) BeginWrite(client int, v value.Value) *Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	op := &Op{ID: r.nextID, Client: client, Kind: Write, Value: v, Invoked: r.tick()}
	r.ops = append(r.ops, op)
	return op
}

// restamp replaces op's invocation stamp with invoked, a stamp the caller
// took before the operation reached this recorder (a nonzero one only).
func (r *Recorder) restamp(op *Op, invoked int64) {
	if invoked == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	op.Invoked = invoked
}

// EndWrite records the return of a write.
func (r *Recorder) EndWrite(op *Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op.Returned = r.tick()
}

// BeginRead records the invocation of a read by the given client.
func (r *Recorder) BeginRead(client int) *Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	op := &Op{ID: r.nextID, Client: client, Kind: Read, Invoked: r.tick()}
	r.ops = append(r.ops, op)
	return op
}

// EndRead records the return of a read together with the value it returned.
func (r *Recorder) EndRead(op *Op, v value.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op.Value = v
	op.Returned = r.tick()
}

// History returns an immutable view of the recorded operations together with
// the initial value v0.
func (r *Recorder) History(v0 value.Value) *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := make([]*Op, len(r.ops))
	copy(ops, r.ops)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Invoked != ops[j].Invoked {
			return ops[i].Invoked < ops[j].Invoked
		}
		// Invocation times are strictly increasing per recorder, but keep the
		// order deterministic even for histories assembled by hand.
		return ops[i].ID < ops[j].ID
	})
	return &History{V0: v0, Ops: ops}
}

// History is a recorded run: the initial value and all operations.
type History struct {
	V0  value.Value
	Ops []*Op
}

// Merge stitches several histories of one logical register into one: the
// reconfiguration subsystem records each epoch of a migrated shard in its own
// recorder, and checking the shard end-to-end means checking the union of its
// lineage's histories. Operations are merged in invocation order; ties (the
// recorders share a coarse logical clock) are broken by the order histories
// are passed in, which callers make deterministic by passing lineages oldest
// first.
//
// The inputs need not be time-disjoint: a merge move's two predecessors
// record interleaved histories, and since dual-epoch reads are recorded
// against the register that answered them, one epoch's history can overlap
// its neighbors' in logical time. Merge therefore guarantees only — and
// exactly — that the output is sorted by invocation time, that each input's
// internal order is preserved under ties (stable), and that an operation
// appearing in several inputs (shared ancestors of two stitched branches) is
// emitted once. Migration seed writes are deliberately not recorded anywhere:
// a read returning a migrated value is justified by the original write in
// the winner's history, so the distinct-written-values assumption of the
// checkers survives stitching.
func Merge(v0 value.Value, hs ...*History) *History {
	var ops []*Op
	seen := make(map[*Op]bool)
	for _, h := range hs {
		if h == nil {
			continue
		}
		for _, op := range h.Ops {
			if seen[op] {
				continue
			}
			seen[op] = true
			ops = append(ops, op)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoked < ops[j].Invoked })
	return &History{V0: v0, Ops: ops}
}

// WellFormed checks the structural invariants every recorded (or stitched)
// history must satisfy: operations sorted by invocation time, strictly
// positive invocation stamps, and completed operations returning strictly
// after they were invoked. Merge preserves well-formedness; the fuzz harness
// pins that.
func (h *History) WellFormed() error {
	last := int64(0)
	for i, op := range h.Ops {
		if op.Invoked <= 0 {
			return fmt.Errorf("op %d (%v) has non-positive invocation time", i, op)
		}
		if op.Invoked < last {
			return fmt.Errorf("op %d (%v) invoked before its predecessor (%d < %d)", i, op, op.Invoked, last)
		}
		if op.Completed() && op.Returned <= op.Invoked {
			return fmt.Errorf("op %d (%v) returned at or before invocation", i, op)
		}
		last = op.Invoked
	}
	return nil
}

// Writes returns all write operations in invocation order.
func (h *History) Writes() []*Op {
	var out []*Op
	for _, op := range h.Ops {
		if op.Kind == Write {
			out = append(out, op)
		}
	}
	return out
}

// CompletedReads returns all completed read operations in invocation order.
func (h *History) CompletedReads() []*Op {
	var out []*Op
	for _, op := range h.Ops {
		if op.Kind == Read && op.Completed() {
			out = append(out, op)
		}
	}
	return out
}

// writeOfValue returns the write whose value matches v, or nil if no write
// wrote v (which for our workloads means v must be the initial value).
func (h *History) writeOfValue(v value.Value) *Op {
	for _, op := range h.Ops {
		if op.Kind == Write && op.Value.Equal(v) {
			return op
		}
	}
	return nil
}

// Violation describes a consistency violation found by a checker.
type Violation struct {
	Condition string
	Read      *Op
	Detail    string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s violated: %s (read %v)", v.Condition, v.Detail, v.Read)
}
