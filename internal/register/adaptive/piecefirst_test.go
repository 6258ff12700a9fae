package adaptive

import (
	"bytes"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// The update round departs from Algorithm 2 as printed: it sends every object
// its piece first and the full replica only to objects that ask for it or have
// not answered (updateRound; DESIGN.md "A departure from Algorithm 2"). These
// tests pin the rules that keep the departure safe; shortcuts_test.go's
// TestGCShortcutUnderLateUpdates, TestJournalFormMakesTheSameTransition and
// TestTrimmedUpdateNeverStoresAnEmptyReplica pin the rest.

// parentPeaks[c-1] is the highest and the summed
// Accountant().MaxBaseObjectBits() of runUnderLateObjects(seed, c) over seeds
// 1..30 at the commit before the update round went piece-first (f21f145,
// every update carrying the replica), under this very policy. Seed by seed
// the two builds cannot be compared: the policy draws from one random stream,
// and the first follow-up round puts the runs on different schedules. (At
// c = 1 and 2 the parent's highest is above the bound the test below holds
// this build to, 4608 and 6912: a late object whose Vp was full parked a whole
// replica in Vf for a write that had long settled elsewhere.)
var parentPeaks = [4]struct{ highest, sum int }{
	{4992, 120192}, {8064, 199680}, {8064, 202752}, {9216, 228480},
}

// TestStorageBoundUnderLateUpdates is Theorem 2's bound where the follow-up
// could break it, were an object to apply both of a write's updates: with
// c = 1..k+2 concurrent writers under lateObjects the base objects never hold
// more than min((c+1)(2f+k)/k, 2(2f+k))·D bits, and over the thirty schedules
// they peak no higher, and in sum lower, than while every update carried the
// replica — an object that is sent no replica parks none in Vf.
func TestStorageBoundUnderLateUpdates(t *testing.T) {
	const f, k, dataBits = 2, 2, 8 * 96
	const n = 2*f + k
	for c := 1; c <= k+2; c++ {
		bound := min((c+1)*n*dataBits/k, 2*n*dataBits)
		highest, sum := 0, 0
		for seed := int64(1); seed <= 30; seed++ {
			peak := runUnderLateObjects(t, seed, c).peakBits
			if peak > bound {
				t.Errorf("c = %d, seed %d: base objects peaked at %d bits, above min((c+1)(2f+k)/k, 2(2f+k))·D = %d", c, seed, peak, bound)
			}
			highest, sum = max(highest, peak), sum+peak
		}
		if parent := parentPeaks[c-1]; highest > parent.highest || sum > parent.sum {
			t.Errorf("c = %d: base objects peaked at %d bits at most and %d summed over the schedules, above the %d and %d of a replica in every update", c, highest, sum, parent.highest, parent.sum)
		}
	}
}

// crashAfterNeedFull is the liveness adversary. The objects in late answer
// nothing until the run cannot move otherwise; the objects in full — whose Vp
// the test filled beforehand — crash as soon as the writer has read their
// answer to its piece-only update, the second RMW it sends them. Everything
// else is first come, first served.
type crashAfterNeedFull struct {
	late, full map[int]bool
	applied    map[int]int // RMWs applied so far, by object
	crashed    map[int]bool
}

func (p *crashAfterNeedFull) Decide(v *dsys.View) dsys.Decision {
	if len(v.Ready) > 0 {
		return dsys.Decision{Kind: dsys.KindRun, Ticket: v.Ready[0].Ticket}
	}
	for obj := range p.full {
		if p.applied[obj] == 2 && !p.crashed[obj] {
			p.crashed[obj] = true
			return dsys.Decision{Kind: dsys.KindCrashObject, Object: obj}
		}
	}
	pick := func(late bool) (dsys.Decision, bool) {
		best := -1
		for i, pd := range v.Pending {
			if !pd.ObjectCrashed && p.late[pd.Object] == late && (best < 0 || pd.Seq < v.Pending[best].Seq) {
				best = i
			}
		}
		if best < 0 {
			return dsys.Decision{}, false
		}
		p.applied[v.Pending[best].Object]++
		return dsys.Decision{Kind: dsys.KindApply, PendingIndex: v.Pending[best].Index}, true
	}
	if d, ok := pick(false); ok {
		return d
	}
	if d, ok := pick(true); ok {
		return d
	}
	return dsys.Decision{Kind: dsys.KindStall}
}

// TestFollowUpReachesTheObjectsThatHaveNotAnswered is the liveness rule. At
// f = 2, k = 2 a write finds Vp full on two objects, which answer NeedFull and
// then crash — f crashes, all the model allows — while two others are merely
// slow. Two settled answers are short of the quorum of four, and the two
// objects that asked for the replica will never take it: the write completes
// only because the follow-up went to the slow objects as well, whose piece-only
// updates then settle it.
func TestFollowUpReachesTheObjectsThatHaveNotAnswered(t *testing.T) {
	const f, k, dataLen = 2, 2, 96
	reg, err := New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	policy := &crashAfterNeedFull{
		full: map[int]bool{0: true, 1: true}, late: map[int]bool{4: true, 5: true},
		applied: map[int]int{}, crashed: map[int]bool{},
	}
	for obj := range policy.full {
		// An earlier write that got no further than these two objects.
		u := testUpdate(1, 9, register.ZeroTS)
		u.piece = testChunk(1, 9, obj+1)
		if resp := u.Apply(states[obj]); resp != respStored|respToVp {
			t.Fatalf("filling Vp of object %d: %+v", obj, resp)
		}
	}
	cluster := dsys.NewCluster(states, dsys.WithPolicy(policy))
	defer cluster.Close()
	want := value.Sequenced(1, 1, dataLen)
	write := cluster.Spawn(1, func(h *dsys.ClientHandle) error { return reg.Write(h, want) })
	cluster.Start()
	if reason := cluster.WaitIdle(); reason != dsys.IdleQuiesced {
		t.Fatalf("the write did not complete: the run ended %s", reason)
	}
	if err := write.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(policy.crashed) != f {
		t.Fatalf("%d objects crashed, want the %d that answered NeedFull", len(policy.crashed), f)
	}
	for obj := range policy.full {
		if err := cluster.ReadObjectState(obj, func(s dsys.State) {
			if st := s.(*objectState); len(st.vf) != 0 || len(st.vp) != k {
				t.Errorf("object %d crashed holding Vp %+v, Vf %+v: it took more than it answered", obj, st.vp, st.vf)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	read := cluster.Spawn(2, func(h *dsys.ClientHandle) error {
		got, err := reg.Read(h)
		if err == nil && !got.Equal(want) {
			t.Errorf("a read after the write returned another value")
		}
		return err
	})
	if err := read.Wait(); err != nil {
		t.Fatalf("read after the write: %v", err)
	}
}

// TestGCBringsThePieceTheUpdateCouldNotStore: an object whose Vp is full is
// slow, the write's quorum settles without it and no follow-up goes out, so
// its piece-only update — whenever it lands — stores nothing. The GC it is
// sent carries the piece for that reason and leaves it where lines 37-38 and
// 43-44 would have: the object ends with its piece of the completed write in
// Vf and nothing older, in either order of arrival, and a late update after
// the GC is ignored.
func TestGCBringsThePieceTheUpdateCouldNotStore(t *testing.T) {
	w := register.Timestamp{Num: 5, Client: 2}
	for _, order := range []string{"update, gc", "gc, update", "gc, follow-up"} {
		state := freshObject0(t).(*objectState)
		testUpdate(3, 1, register.ZeroTS).Apply(state) // Vp: v0, w(3,1)
		gc := &gcRMW{ts: w, piece: testChunk(5, 2, 1)}
		switch order {
		case "update, gc":
			if resp := pieceOnly(testUpdate(5, 2, register.ZeroTS)).Apply(state); resp != respNeedFull {
				t.Fatalf("%s: the update answered %+v", order, resp)
			}
			gc.Apply(state)
		case "gc, update":
			gc.Apply(state)
			if resp := pieceOnly(testUpdate(5, 2, register.ZeroTS)).Apply(state); resp != updateResp(0) {
				t.Fatalf("%s: the update answered %+v", order, resp)
			}
		case "gc, follow-up":
			gc.Apply(state)
			if resp := testUpdate(5, 2, register.ZeroTS).Apply(state); resp != updateResp(0) {
				t.Fatalf("%s: the update answered %+v", order, resp)
			}
		}
		if len(state.vp) != 0 || len(state.vf) != 1 || state.vf[0].TS != w || state.vf[0].Block.Index != 1 || state.storedTS != w {
			t.Errorf("%s: the object ends with Vp %+v, Vf %+v, storedTS %v; want only piece 1 of %v", order, state.vp, state.vf, state.storedTS, w)
		}
	}
	// A GC that is not the first news of its write's completion brings
	// nothing: storedTS has passed it, or Vf holds something newer.
	passed := &objectState{storedTS: register.Timestamp{Num: 6, Client: 1}}
	(&gcRMW{ts: w, piece: testChunk(5, 2, 1)}).Apply(passed)
	newer := &objectState{vf: []register.Chunk{testChunk(7, 3, 1), testChunk(7, 3, 2)}}
	(&gcRMW{ts: w, piece: testChunk(5, 2, 1)}).Apply(newer)
	if len(passed.vf)+len(passed.vp) != 0 || len(newer.vf) != 2 || len(newer.vp) != 0 {
		t.Errorf("a stale GC stored its piece: %+v, %+v", passed, newer)
	}
}

// TestOldClientSeesNoNewByte: an update that carries its replica — all a
// client built before the piece-first round ever sends — is answered with the
// two flag bytes it always was, on every branch; the third byte exists only in
// the answer to an update without a replica that needs one.
func TestOldClientSeesNoNewByte(t *testing.T) {
	golden := map[string][]byte{ // written by the build before this one, per branch
		"into Vp":       {1, 1},
		"into Vf":       {1, 0},
		"Vf is newer":   {0, 0},
		"ignored":       {0, 0},
		"held in Vp":    {1, 1},
		"held in Vf":    {1, 0},
		"needs replica": {0, 0, 1},
	}
	state := freshObject0(t)
	for _, step := range []struct {
		branch string
		u      *updateRMW
	}{
		{"into Vp", testUpdate(3, 1, register.ZeroTS)},
		{"held in Vp", testUpdate(3, 1, register.ZeroTS)},
		{"needs replica", pieceOnly(testUpdate(5, 2, register.ZeroTS))},
		{"into Vf", testUpdate(5, 2, register.ZeroTS)},
		{"held in Vf", testUpdate(5, 2, register.ZeroTS)},
		{"Vf is newer", testUpdate(4, 3, register.ZeroTS)},
		{"ignored", testUpdate(0, 7, register.ZeroTS)},
	} {
		got, err := register.EncodeResponse("adaptive.update", step.u.Apply(state))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden[step.branch]) {
			t.Errorf("%s: answered % x, want % x", step.branch, got, golden[step.branch])
		}
		if (len(got) != 2) != (len(step.u.full) == 0) {
			t.Errorf("%s: an update with %d replica pieces got %d answer bytes", step.branch, len(step.u.full), len(got))
		}
		back, err := register.DecodeResponse("adaptive.update", got)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := register.EncodeResponse("adaptive.update", back); err != nil || !bytes.Equal(again, got) {
			t.Errorf("%s: the answer does not survive the codec: % x, %v", step.branch, again, err)
		}
	}
}
