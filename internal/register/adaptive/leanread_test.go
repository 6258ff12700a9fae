package adaptive

import (
	"context"
	"errors"
	"slices"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// A read's first round departs from Algorithm 3 as printed: it asks k+f
// objects for their pieces and the other f for timestamps only (readValue;
// DESIGN.md "A departure from Algorithm 3"). These tests pin the fallback to
// the round as printed, what the retry budget counts, and that a lean round
// still sees everything a contended object holds; the simulator's regularity
// checkers police the rest on every seed.

// roundRecorder is a remote cluster's invoker that applies each round to an
// in-process cluster at once and records which objects were asked for their
// pieces and which for their timestamps.
type roundRecorder struct {
	objects *dsys.Cluster
	rounds  []recordedRound
}

type recordedRound struct{ pieces, timestamps []int }

func (r *roundRecorder) InvokeRound(_ context.Context, _ int, targets []int, makeRMW func(int) dsys.RMW, _ int) (map[int]any, error) {
	var round recordedRound
	resp := map[int]any{}
	for _, obj := range targets {
		rmw := makeRMW(obj)
		switch rmw.(type) {
		case *readValueRMW:
			round.pieces = append(round.pieces, obj)
		case *readTSRMW:
			round.timestamps = append(round.timestamps, obj)
		}
		if out, err := r.objects.ApplyOne(obj, rmw); err == nil {
			resp[obj] = out
		}
	}
	r.rounds = append(r.rounds, round)
	return resp, nil
}

// leanReadFixture is an f = 1, k = 2 register whose objects the test prepares
// by applying RMWs to their states directly, and a reader that reaches them
// through a roundRecorder.
type leanReadFixture struct {
	reg    *Register
	states []dsys.State
	rec    *roundRecorder
}

const leanDataLen = 96

func newLeanReadFixture(t *testing.T) *leanReadFixture {
	t.Helper()
	reg, err := New(register.Config{F: 1, K: 2, DataLen: leanDataLen})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(leanDataLen))
	if err != nil {
		t.Fatal(err)
	}
	return &leanReadFixture{reg: reg, states: states}
}

// writeSet is the chunks write ⟨num, client⟩ of v sends.
func (fx *leanReadFixture) writeSet(t *testing.T, num, client int, v value.Value) []register.Chunk {
	t.Helper()
	chunks, err := register.EncodeWrite(nil, fx.reg.cfg, oracle.WriteID{Client: client, Seq: num}, v, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		chunks[i].TS = register.Timestamp{Num: num, Client: client}
	}
	return chunks
}

// read starts a cluster over the prepared states, crashes the objects named
// and reads once.
func (fx *leanReadFixture) read(t *testing.T, crashed ...int) (value.Value, error) {
	t.Helper()
	objects := dsys.NewCluster(fx.states, dsys.WithLiveMode())
	t.Cleanup(objects.Close)
	for _, obj := range crashed {
		if err := objects.CrashObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	fx.rec = &roundRecorder{objects: objects}
	remote := dsys.NewRemoteCluster(len(fx.states), fx.rec)
	t.Cleanup(remote.Close)
	var got value.Value
	err := remote.RunScoped(7, 0, len(fx.states), func(h *dsys.ClientHandle) (err error) {
		got, err = fx.reg.Read(h)
		return err
	})
	return got, err
}

// TestLeanReadFallsBackToTheFullRound: write W completed on objects 1, 2 and
// 3 — its update and its GC never reached object 0 — and object 2 has crashed
// since. The lean round hears from 0, 1 and 3: object 0's piece is older than
// the storedTS the other two report and object 3 was asked for timestamps
// only, which leaves one piece of W where two are needed. The second round is
// the round as printed, and object 3's piece completes W. The lean round is
// not charged to the retry budget: with a budget of one round the read still
// returns W.
func TestLeanReadFallsBackToTheFullRound(t *testing.T) {
	fx := newLeanReadFixture(t)
	want := value.Sequenced(1, 1, leanDataLen)
	w := fx.writeSet(t, 1, 1, want)
	for _, obj := range []int{1, 2, 3} {
		u := &updateRMW{k: 2, ts: w[obj].TS, piece: w[obj]}
		if resp := u.Apply(fx.states[obj]); resp != respStored|respToVp {
			t.Fatalf("W's update at object %d: %+v", obj, resp)
		}
		(&gcRMW{ts: w[obj].TS}).Apply(fx.states[obj])
	}
	fx.reg.SetReadRetryBudget(1)
	got, err := fx.read(t, 2)
	if err != nil || !got.Equal(want) {
		t.Fatalf("read: %v, returned W = %v", err, err == nil && got.Equal(want))
	}
	all := []int{0, 1, 2, 3}
	if len(fx.rec.rounds) != 2 {
		t.Fatalf("the read took %d rounds, want a lean and a full one: %+v", len(fx.rec.rounds), fx.rec.rounds)
	}
	if lean := fx.rec.rounds[0]; !slices.Equal(lean.pieces, all[:3]) || !slices.Equal(lean.timestamps, all[3:]) {
		t.Errorf("the first round asked %v for pieces and %v for timestamps, want 0..2 and 3", lean.pieces, lean.timestamps)
	}
	if full := fx.rec.rounds[1]; !slices.Equal(full.pieces, all) || len(full.timestamps) != 0 {
		t.Errorf("the second round asked %v for pieces and %v for timestamps, want every object for pieces", full.pieces, full.timestamps)
	}

	// With no round as printed in the budget the same read is starved.
	fx.reg.SetReadRetryBudget(0)
	if _, err := fx.read(t, 2); !errors.Is(err, register.ErrReadStarved) {
		t.Fatalf("read with an empty budget: %v, want ErrReadStarved after the lean round", err)
	}
	if len(fx.rec.rounds) != 1 {
		t.Errorf("a read with an empty budget took %d rounds, want the lean one alone", len(fx.rec.rounds))
	}
}

// TestLeanReadDecodesTheNewestOfAContendedObject: write A's update has filled
// every Vp beside the initial piece, write B's went to Vf whole, and neither
// has collected garbage. The k+f objects a lean round asks answer with all of
// it — two writes' pieces and a replica each — and the round alone decodes B,
// the newest value with k pieces in hand.
func TestLeanReadDecodesTheNewestOfAContendedObject(t *testing.T) {
	fx := newLeanReadFixture(t)
	a := fx.writeSet(t, 1, 1, value.Sequenced(1, 1, leanDataLen))
	want := value.Sequenced(2, 1, leanDataLen)
	b := fx.writeSet(t, 2, 2, want)
	for obj, s := range fx.states {
		if resp := (&updateRMW{k: 2, ts: a[obj].TS, piece: a[obj]}).Apply(s); resp != respStored|respToVp {
			t.Fatalf("A's update at object %d: %+v", obj, resp)
		}
		if resp := (&updateRMW{k: 2, ts: b[obj].TS, piece: b[obj], full: b[:2]}).Apply(s); resp != respStored {
			t.Fatalf("B's update at object %d: %+v", obj, resp)
		}
	}
	got, err := fx.read(t)
	if err != nil || !got.Equal(want) {
		t.Fatalf("read: %v, returned B = %v", err, err == nil && got.Equal(want))
	}
	if len(fx.rec.rounds) != 1 || len(fx.rec.rounds[0].timestamps) != 1 {
		t.Errorf("the read took %+v, want one lean round", fx.rec.rounds)
	}
}

// TestInProcessReadKeepsEveryHeldPiece: in process, the objects of a read
// round answer into windows of one piece header each, cut from one array of
// the round's, and an object that holds more must not spill into its
// neighbour's. Write A completed everywhere but object 2, which holds write
// B's piece and its storedTS instead; B's update also reached object 0, whose
// Vp holds A's piece and then B's. The lean round asks objects 0..2: B's
// pieces are object 0's second and object 2's, and object 1 answers right
// after object 0, with A's. The read returns B from the lean round alone.
func TestInProcessReadKeepsEveryHeldPiece(t *testing.T) {
	fx := newLeanReadFixture(t)
	a := fx.writeSet(t, 1, 1, value.Sequenced(1, 1, leanDataLen))
	want := value.Sequenced(2, 2, leanDataLen)
	b := fx.writeSet(t, 2, 2, want)
	apply := func(obj int, rmw dsys.RMW, want any) {
		t.Helper()
		if got := rmw.Apply(fx.states[obj]); want != nil && got != want {
			t.Fatalf("%T at object %d: %+v, want %+v", rmw, obj, got, want)
		}
	}
	for _, obj := range []int{0, 1, 3} {
		apply(obj, &updateRMW{k: 2, ts: a[obj].TS, piece: a[obj]}, respStored|respToVp)
		apply(obj, &gcRMW{ts: a[obj].TS}, nil)
	}
	apply(0, &updateRMW{k: 2, ts: b[0].TS, storedTS: a[0].TS, piece: b[0]}, respStored|respToVp)
	apply(2, &updateRMW{k: 2, ts: b[2].TS, piece: b[2]}, respStored|respToVp)
	apply(2, &gcRMW{ts: b[2].TS}, nil)

	objects := dsys.NewCluster(fx.states, dsys.WithLiveMode())
	defer objects.Close()
	fx.reg.SetReadRetryBudget(0) // the lean round alone
	var got value.Value
	err := objects.RunScoped(7, 0, len(fx.states), func(h *dsys.ClientHandle) (err error) {
		got, err = fx.reg.Read(h)
		return err
	})
	if err != nil || !got.Equal(want) {
		t.Fatalf("read: %v, returned B = %v", err, err == nil && got.Equal(want))
	}
}
