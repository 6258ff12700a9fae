package adaptive

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// applyLog is a journal that records every RMW the cluster lets take effect,
// in the order it does: the cluster asks Refuses before each Apply.
type applyLog struct {
	mu   sync.Mutex
	seen map[dsys.RMW]bool
	rmws []dsys.RMW
}

func (l *applyLog) Refuses(rmw dsys.RMW) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.seen[rmw] {
		l.seen[rmw] = true
		l.rmws = append(l.rmws, rmw)
	}
	return nil
}

func (l *applyLog) RecordApply(int, dsys.RMW)                      {}
func (l *applyLog) RecordApplyTraced(int, dsys.RMW, trace.Context) {}
func (l *applyLog) DurableBlocks() []storagecost.BlockInfo         { return nil }

func (l *applyLog) applied() []dsys.RMW {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.rmws)
}

// slots reports where each of a round's RMWs lies in an array of T that
// starts at the lowest of them; it fails the test if one lies between slots.
func slots[T any](t *testing.T, round string, ps []*T) []int {
	t.Helper()
	low := uintptr(unsafe.Pointer(ps[0]))
	for _, p := range ps {
		low = min(low, uintptr(unsafe.Pointer(p)))
	}
	size := unsafe.Sizeof(*ps[0])
	at := make([]int, len(ps))
	for i, p := range ps {
		d := uintptr(unsafe.Pointer(p)) - low
		if d%size != 0 {
			t.Fatalf("%s round: its RMWs are not the slots of one array", round)
		}
		at[i] = int(d / size)
	}
	return at
}

// TestStragglerAnswersOnlyItsOwnRound: every round of a write builds its RMWs
// in one array of its own, so an RMW that takes effect after its round has
// returned writes its answer into that round's array and nowhere else. At
// f = 2, k = 2 objects 0, 1 and 5 start with a full Vp, and object 5 is late
// (crashAfterNeedFull): its RMWs take effect only once nothing else can move.
// The write's first update round is short of a quorum of settled answers, a
// follow-up takes the replica to the objects that asked for it or did not
// answer, and the GC completes the write — all without object 5, whose query
// and first update take effect only afterwards. Its query's answer lands in
// the query round's array, at its own slot, and not one RMW that had taken
// effect by the time the write returned changes after.
func TestStragglerAnswersOnlyItsOwnRound(t *testing.T) {
	const f, k, dataLen, late = 2, 2, 96, 5
	reg, err := New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	n := reg.Config().N()
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []int{0, 1, late} {
		// An earlier write that got no further than these three objects.
		u := testUpdate(1, 9, register.ZeroTS)
		u.piece = testChunk(1, 9, obj+1)
		if resp := u.Apply(states[obj]); resp != respStored|respToVp {
			t.Fatalf("filling Vp of object %d: %v", obj, resp)
		}
	}
	policy := &crashAfterNeedFull{late: map[int]bool{late: true}, applied: map[int]int{}, crashed: map[int]bool{}}
	cluster := dsys.NewCluster(states, dsys.WithPolicy(policy))
	defer cluster.Close()
	log := &applyLog{seen: map[dsys.RMW]bool{}}
	cluster.SetJournal(log)

	// What had taken effect when the write returned, and the values it held.
	var returned []dsys.RMW
	var held []any
	write := cluster.Spawn(1, func(h *dsys.ClientHandle) error {
		if err := reg.Write(h, value.Sequenced(1, 1, dataLen)); err != nil {
			return err
		}
		// The coordinator applies nothing while this task holds the run token.
		returned = log.applied()
		for _, rmw := range returned {
			held = append(held, reflect.ValueOf(rmw).Elem().Interface())
		}
		return nil
	})
	cluster.Start()
	if reason := cluster.WaitIdle(); reason != dsys.IdleQuiesced {
		t.Fatalf("the run ended %s", reason)
	}
	if err := write.Wait(); err != nil {
		t.Fatal(err)
	}

	// Sort what took effect into the write's four rounds.
	var query []*readTSRMW
	var first, followUp []*updateRMW
	var gcs []*gcRMW
	for _, rmw := range log.applied() {
		switch r := rmw.(type) {
		case *readTSRMW:
			query = append(query, r)
		case *updateRMW:
			if len(r.full) == 0 {
				first = append(first, r)
			} else {
				followUp = append(followUp, r)
			}
		case *gcRMW:
			gcs = append(gcs, r)
		default:
			t.Fatalf("the write sent a %T", rmw)
		}
	}
	if len(query) != n || len(first) != n || len(gcs) != n || len(followUp) == 0 || followUp[0].piece.Block.Index != 1 {
		t.Fatalf("%d queries, %d first updates, %d follow-ups and %d GCs took effect; want %d of each but the follow-ups, object 0's first",
			len(query), len(first), len(followUp), len(gcs), n)
	}

	// Each round's RMWs are the slots of one array of n, object 0's first: an
	// update lies at its object's slot, and so does the late object's query,
	// the last to take effect.
	for name, round := range map[string][]*updateRMW{"first update": first, "follow-up": followUp} {
		at := slots(t, name, round)
		for i, u := range round {
			if obj := u.piece.Block.Index - 1; at[i] != obj {
				t.Errorf("%s round: object %d's update is at slot %d of the round's array", name, obj, at[i])
			}
		}
	}
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	queryAt, gcAt := slots(t, "query", query), slots(t, "GC", gcs)
	for name, at := range map[string][]int{"query": queryAt, "GC": gcAt} {
		if !slices.Equal(slices.Sorted(slices.Values(at)), every) {
			t.Errorf("%s round: its RMWs lie at %v, not at the %d slots of one array", name, at, n)
		}
	}
	if first[n-1].piece.Block.Index != late+1 {
		t.Errorf("the last first update to take effect is object %d's, want the late object's", first[n-1].piece.Block.Index-1)
	}

	// The late object's query took effect after the write returned, and its
	// answer — a Vp holding write ⟨1, 9⟩ — is in its slot of the query array.
	straggler := query[n-1]
	if slices.Contains(returned, dsys.RMW(straggler)) || queryAt[n-1] != late {
		t.Fatalf("the last query to take effect is at slot %d, before the write returned: %v; want the late object's, after",
			queryAt[n-1], slices.Contains(returned, dsys.RMW(straggler)))
	}
	if want := (readTSResp{StoredTS: register.ZeroTS, MaxNum: 1}); straggler.resp != want {
		t.Errorf("the straggler's slot holds the answer %+v, want %+v", straggler.resp, want)
	}

	// Nothing that had taken effect by then was written to since.
	for i, rmw := range returned {
		if now := reflect.ValueOf(rmw).Elem().Interface(); !reflect.DeepEqual(now, held[i]) {
			t.Errorf("a %T that took effect before the write returned changed after: %+v, then %+v", rmw, held[i], now)
		}
	}
}
