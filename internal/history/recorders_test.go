package history

import (
	"testing"

	"spacebounds/internal/value"
)

// newCountingRecorders returns recorders on one shared counter clock, as the
// live sharded workload builds them.
func newCountingRecorders() *Recorders {
	var now int64
	return NewRecorders(func() int64 { now++; return now })
}

func TestRecordersStitchKeepsInvocationOrderAcrossRecorders(t *testing.T) {
	rs := newCountingRecorders()
	// The predecessor's write returns before the successor's first write is
	// invoked; a read of the predecessor overlaps that write.
	w1 := rs.BeginWrite(1, 0, "old", v("a"))
	w1.EndWrite()
	rd := rs.BeginRead(2, 0, "old", "")
	w2 := rs.BeginWrite(1, 0, "new", v("b"))
	rd.EndRead(v("a"), false)
	w2.EndWrite()
	h := rs.Stitch(value.Zero(16), []string{"old", "new", "never-recorded"})
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if len(h.Ops) != 3 || h.Ops[0] != w1.op || h.Ops[1] != rd.op || h.Ops[2] != w2.op {
		t.Fatalf("stitched history %v, want w1, rd, w2 in invocation order", h.Ops)
	}
	if !w1.op.Precedes(w2.op) || rd.op.Precedes(w2.op) {
		t.Fatal("one clock must order operations across recorders")
	}
	if err := CheckStrongRegularity(h); err != nil {
		t.Fatal(err)
	}
}

func TestDualEpochReadCompletesOnlyWhereItWasAnswered(t *testing.T) {
	for _, tc := range []struct {
		name              string
		fell              bool
		answered, skipped string
	}{
		{"successor answers", false, "succ", "pred"},
		{"fallback answers", true, "pred", "succ"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := newCountingRecorders()
			invoked := rs.Now()
			rd := rs.BeginRead(7, invoked, "succ", "pred")
			rd.EndRead(v("x"), tc.fell)
			for _, name := range []string{"succ", "pred"} {
				h := rs.Get(name).History(value.Zero(16))
				if len(h.Ops) != 1 {
					t.Fatalf("%s holds %d ops, want the read's one copy", name, len(h.Ops))
				}
				op := h.Ops[0]
				if op.Invoked != invoked {
					t.Fatalf("%s: copy invoked at %d, want the caller's stamp %d", name, op.Invoked, invoked)
				}
				switch name {
				case tc.answered:
					if !op.Completed() || !op.Value.Equal(v("x")) {
						t.Fatalf("%s answered the read but its copy is %v", name, op)
					}
				case tc.skipped:
					if op.Completed() {
						t.Fatalf("%s did not answer the read but its copy completed: %v", name, op)
					}
				}
			}
		})
	}
}

func TestNilRecordersRecordNothing(t *testing.T) {
	var rs *Recorders
	if rs.Now() != 0 {
		t.Fatal("nil recorders have no clock")
	}
	rs.BeginWrite(1, 0, "a", v("a")).EndWrite()
	rs.BeginRead(1, 0, "a", "b").EndRead(v("a"), true)
}
