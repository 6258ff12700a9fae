package adaptive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// The write path takes two shortcuts the paper's pseudocode does not spell
// out — its query round asks for timestamps only, and its GC round leaves the
// piece out where lines 43-44 cannot fire — and the journal a third: it
// records an update without the full replica lines 37-38 did not store. These
// tests pin that none changes what the algorithm does.

// testChunk is piece index of the write stamped ⟨num, client⟩.
func testChunk(num, client, index int) register.Chunk {
	return register.Chunk{
		TS:     register.Timestamp{Num: num, Client: client},
		Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(16*num + client)}, 24)},
		Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
	}
}

// testUpdate is the update object 0 receives from write ⟨num, client⟩ at k = 2.
func testUpdate(num, client int, storedTS register.Timestamp) *updateRMW {
	return &updateRMW{
		k: 2, ts: register.Timestamp{Num: num, Client: client}, storedTS: storedTS,
		piece: testChunk(num, client, 1),
		full:  []register.Chunk{testChunk(num, client, 1), testChunk(num, client, 2)},
	}
}

func encodedState(t *testing.T, s dsys.State) []byte {
	t.Helper()
	_, b, err := register.EncodeState(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mutatingSchedules are sequences of mutating RMWs on object 0 of a fresh
// f = 1, k = 2 register that between them take every branch of the update and
// GC rounds. Each call builds fresh RMWs: applying one marks it.
func mutatingSchedules() map[string][]dsys.RMW {
	ts := func(num, client int) register.Timestamp { return register.Timestamp{Num: num, Client: client} }
	return map[string][]dsys.RMW{
		"quiescent": {},
		"Vp partly full": {
			testUpdate(3, 1, register.ZeroTS),
		},
		"Vp full and Vf set": {
			testUpdate(3, 1, register.ZeroTS), // Vp: v0, w(3,1)
			testUpdate(5, 2, register.ZeroTS), // Vp full: into Vf
			testUpdate(4, 3, register.ZeroTS), // older than Vf: not stored
			testUpdate(7, 4, ts(3, 1)),        // newer: replaces Vf, raises storedTS
		},
		"after GC": {
			testUpdate(3, 1, register.ZeroTS),
			testUpdate(5, 2, register.ZeroTS),
			&gcRMW{ts: ts(5, 2), piece: testChunk(5, 2, 1)}, // shrinks Vf to the piece
			&gcRMW{ts: ts(6, 1)},                            // drops everything: both sets empty
			testUpdate(2, 9, register.ZeroTS),               // below storedTS: ignored
		},
		"seed": {
			&seedUpdateRMW{*testUpdate(register.SeedTS.Num, register.SeedTS.Client, register.ZeroTS)},
			&seedUpdateRMW{*testUpdate(register.SeedTS.Num, register.SeedTS.Client, register.ZeroTS)},
			&gcRMW{ts: register.SeedTS, piece: testChunk(register.SeedTS.Num, register.SeedTS.Client, 1)},
		},
		"seed into Vf": {
			testUpdate(3, 1, register.ZeroTS),
			&seedUpdateRMW{*testUpdate(register.SeedTS.Num, register.SeedTS.Client, register.ZeroTS)},
		},
	}
}

// freshObject0 is object 0 of a fresh f = 1, k = 2 register.
func freshObject0(t *testing.T) dsys.State {
	t.Helper()
	reg, err := New(register.Config{F: 1, K: 2, DataLen: 48})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(48))
	if err != nil {
		t.Fatal(err)
	}
	return states[0]
}

// TestJournalFormMakesTheSameTransition is the third shortcut: the journal
// records an update without its full replica unless lines 37-38 stored it.
// Every schedule is applied as the writers built it to one object and, RMW by
// RMW, in its journal form — through the codec, as a log holds it — to
// another; responses and states must agree after every step, and an update
// keeps its replica exactly when it answered Stored && !ToVp. The RMW itself
// still carries what its writer gave it.
func TestJournalFormMakesTheSameTransition(t *testing.T) {
	whole, trimmed := 0, 0
	for name, schedule := range mutatingSchedules() {
		live, replayed := freshObject0(t), freshObject0(t)
		for step, rmw := range schedule {
			resp := rmw.Apply(live)
			form := rmw
			if tr, ok := rmw.(dsys.JournalTrimmer); ok {
				form = tr.JournalForm()
			}
			env, err := register.EncodeEnvelope(dsys.OpID{}, 0, form)
			if err != nil {
				t.Fatal(err)
			}
			if kind, _ := register.KindOf(rmw); env.Kind != kind {
				t.Fatalf("%s, step %d: a %s is journaled as a %s", name, step, kind, env.Kind)
			}
			decoded, err := register.DecodeRMW(env)
			if err != nil {
				t.Fatal(err)
			}
			if got := decoded.Apply(replayed); got != resp {
				t.Errorf("%s, step %d: the journal form answers %+v, the RMW answered %+v", name, step, got, resp)
			}
			if !bytes.Equal(encodedState(t, replayed), encodedState(t, live)) {
				t.Errorf("%s, step %d: the journal form leaves a different state", name, step)
			}
			var sent, kept *updateRMW
			switch u := rmw.(type) {
			case *updateRMW:
				sent, kept = u, form.(*updateRMW)
			case *seedUpdateRMW:
				sent, kept = &u.updateRMW, &form.(*seedUpdateRMW).updateRMW
			default:
				continue
			}
			if len(sent.full) != 2 {
				t.Errorf("%s, step %d: asking for the journal form took the replica off the RMW", name, step)
			}
			if intoVf := resp == (updateResp{Stored: true}); intoVf != (len(kept.full) > 0) {
				t.Errorf("%s, step %d: answered %+v, journaled with %d replica pieces", name, step, resp, len(kept.full))
			} else if intoVf {
				whole++
			} else {
				trimmed++
			}
		}
	}
	if whole == 0 || trimmed == 0 {
		t.Errorf("%d whole and %d trimmed updates: the schedules do not reach both", whole, trimmed)
	}
}

// TestTrimmedUpdateNeverStoresAnEmptyReplica is the hostile case: an update
// without a full replica reaches an object whose Vp is full and whose Vf would
// take the write, which only a log replayed onto the wrong state (or a peer
// that builds no replica) can cause. The update refuses itself with an error
// response, which the cluster turns into dsys.ErrApplyRefused, and the object
// does not change by a byte.
func TestTrimmedUpdateNeverStoresAnEmptyReplica(t *testing.T) {
	for _, build := range []func(u updateRMW) dsys.RMW{
		func(u updateRMW) dsys.RMW { return &u },
		func(u updateRMW) dsys.RMW { return &seedUpdateRMW{u} },
	} {
		state := freshObject0(t)
		testUpdate(3, 1, register.ZeroTS).Apply(state) // Vp: v0, w(3,1)
		before := encodedState(t, state)
		rmw := build(testUpdate(5, 2, register.Timestamp{Num: 3, Client: 1}).trimmed())
		if err, ok := rmw.Apply(state).(error); !ok || !errors.Is(err, errTrimmedUpdate) {
			t.Fatalf("%T without a replica into a full Vp answered %v", rmw, err)
		}
		if !bytes.Equal(encodedState(t, state), before) {
			t.Fatalf("%T: the refused update changed the state", rmw)
		}
		c := dsys.NewCluster([]dsys.State{state}, dsys.WithLiveMode())
		if _, err := c.ApplyOne(0, rmw); !errors.Is(err, dsys.ErrApplyRefused) {
			t.Fatalf("%T: the cluster reports %v, want dsys.ErrApplyRefused", rmw, err)
		}
		c.Close()
	}
}

// TestReadTSAnswersWhatAWriterTakesFromReadValue: after every step of every
// mutating schedule, readTSRMW reports exactly the storedTS and the largest
// timestamp number a readValueRMW on the same state would have shown the
// writer, and leaves the state alone.
func TestReadTSAnswersWhatAWriterTakesFromReadValue(t *testing.T) {
	for name, schedule := range mutatingSchedules() {
		reg, err := New(register.Config{F: 1, K: 2, DataLen: 48})
		if err != nil {
			t.Fatal(err)
		}
		states, err := reg.InitialStates(value.Zero(48))
		if err != nil {
			t.Fatal(err)
		}
		state := states[0]
		for step := -1; step < len(schedule); step++ {
			if step >= 0 {
				schedule[step].Apply(state)
			}
			before := encodedState(t, state)
			got := (&readTSRMW{}).Apply(state).(readTSResp)
			full := (&readValueRMW{}).Apply(state).(readValueResp)
			wantNum := 0
			for _, c := range full.Chunks {
				wantNum = max(wantNum, c.TS.Num)
			}
			if got.StoredTS != full.StoredTS || got.MaxNum != wantNum {
				t.Errorf("%s, step %d: readts = (%v, %d), readValue shows (%v, %d)",
					name, step, got.StoredTS, got.MaxNum, full.StoredTS, wantNum)
			}
			if !bytes.Equal(encodedState(t, state), before) {
				t.Errorf("%s, step %d: a read-only RMW changed the state", name, step)
			}
		}
	}
	if blocks := (&readTSRMW{}).Blocks(); blocks != nil {
		t.Errorf("readts carries blocks: %v", blocks)
	}
}

// TestPiecelessGCNeverStoresAnEmptyPiece is the hostile case: a GC without a
// piece reaches an object whose Vf does hold that write's full replica, which
// no correct writer can cause. The object keeps the replica — with storedTS
// already at the GC's timestamp its state does not change by a byte — and in
// no case stores the empty piece.
func TestPiecelessGCNeverStoresAnEmptyPiece(t *testing.T) {
	held := register.Timestamp{Num: 5, Client: 2}
	for _, storedTS := range []register.Timestamp{held, register.ZeroTS} {
		state := &objectState{
			storedTS: storedTS,
			vp:       []register.Chunk{testChunk(6, 1, 1), testChunk(7, 3, 1)},
			vf:       []register.Chunk{testChunk(5, 2, 1), testChunk(5, 2, 2)},
		}
		before := encodedState(t, state)
		g := &gcRMW{ts: held}
		if g.Blocks() != nil {
			t.Fatal("a GC without a piece reports blocks in flight")
		}
		if _, ok := g.Apply(state).(gcResp); !ok {
			t.Fatal("GC did not answer gcResp")
		}
		for _, c := range append(append([]register.Chunk{}, state.vp...), state.vf...) {
			if len(c.Block.Data) == 0 {
				t.Fatalf("storedTS %v: the object stored an empty piece: %+v", storedTS, c)
			}
		}
		if len(state.vf) != 2 || state.storedTS != held {
			t.Fatalf("storedTS %v: Vf has %d pieces and storedTS is %v, want the replica kept and %v", storedTS, len(state.vf), state.storedTS, held)
		}
		if storedTS == held && !bytes.Equal(encodedState(t, state), before) {
			t.Fatal("the state changed although storedTS was already at the GC's timestamp")
		}
	}
	// The same GC with its piece does shrink the replica: the piece is what
	// lines 43-44 need, and only they.
	state := &objectState{vf: []register.Chunk{testChunk(5, 2, 1), testChunk(5, 2, 2)}}
	(&gcRMW{ts: held, piece: testChunk(5, 2, 1)}).Apply(state)
	if len(state.vf) != 1 || state.vf[0].Block.Index != 1 {
		t.Fatalf("GC with its piece left Vf = %+v", state.vf)
	}
}

// TestUpdateSharedRunsAreThePayload: a write's n updates, encoded for a
// sender, are each the whole payload cut in two, and the second run is the
// same memory for all of them. A decoded update, which has no siblings, goes
// out whole.
func TestUpdateSharedRunsAreThePayload(t *testing.T) {
	const k, n = 2, 4
	writeSet := make([]register.Chunk, n)
	for i := range writeSet {
		writeSet[i] = testChunk(3, 1, i+1)
	}
	update := updatesOf(k, register.Timestamp{Num: 3, Client: 1}, register.Timestamp{Num: 2, Client: 2}, writeSet)
	var first []byte
	for obj := 0; obj < n; obj++ {
		u := update(obj)
		own, shared, err := encodeUpdateShared(&u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(append([]byte{}, own...), shared...), encodeUpdate(&u)) {
			t.Fatalf("object %d: the two runs are not the payload", obj)
		}
		if first == nil {
			first = shared
		}
		if len(shared) == 0 || &shared[0] != &first[0] {
			t.Fatalf("object %d: the full replica was encoded again", obj)
		}
	}
	u := update(0)
	decoded, err := decodeUpdate(encodeUpdate(&u))
	if err != nil {
		t.Fatal(err)
	}
	own, shared, err := encodeUpdateShared(&decoded)
	if err != nil || shared != nil || !bytes.Equal(own, encodeUpdate(&u)) {
		t.Fatalf("a decoded update went out in two runs (%d + %d bytes, %v)", len(own), len(shared), err)
	}
}

// lateObjects is an adversarial schedule for the GC shortcut. RMWs on the late
// objects take effect only when nothing else can move — so every round returns
// at a quorum of the others, and a late object's update lands after its writer
// has sent the GC, or returned — and everything else is picked at random from
// the ready clients and each object's oldest pending RMW. Per object the order
// is FIFO, as over a connection; across objects and clients it is arbitrary.
type lateObjects struct {
	rng  *rand.Rand
	late map[int]bool
}

func (p *lateObjects) Decide(v *dsys.View) dsys.Decision {
	oldest, objects := map[int]dsys.PendingView{}, 0
	for _, pd := range v.Pending {
		if cur, ok := oldest[pd.Object]; !ok || pd.Seq < cur.Seq {
			oldest[pd.Object] = pd
		}
		objects = max(objects, pd.Object+1)
	}
	var moves, lateMoves []dsys.Decision
	for _, r := range v.Ready {
		moves = append(moves, dsys.Decision{Kind: dsys.KindRun, Ticket: r.Ticket})
	}
	for obj := 0; obj < objects; obj++ { // in object order: map order would unseed the run
		pd, ok := oldest[obj]
		if !ok {
			continue
		}
		d := dsys.Decision{Kind: dsys.KindApply, PendingIndex: pd.Index}
		if p.late[obj] {
			lateMoves = append(lateMoves, d)
		} else {
			moves = append(moves, d)
		}
	}
	if len(moves) == 0 {
		moves = lateMoves
	}
	if len(moves) == 0 {
		return dsys.Decision{Kind: dsys.KindStall}
	}
	return moves[p.rng.Intn(len(moves))]
}

// TestGCShortcutUnderLateUpdates runs k+2 concurrent writers — enough for
// updates to find Vp full and fall back to Vf — under lateObjects. Whatever
// the schedule, once everything has applied every object holds exactly its
// own piece of the write with the largest timestamp, no stored piece is
// empty, and storage is back at (2f+k)/k · D.
func TestGCShortcutUnderLateUpdates(t *testing.T) {
	const f, k, dataLen, writers, writesEach = 2, 2, 96, 4, 2
	usedVf := false
	for seed := int64(1); seed <= 30; seed++ {
		reg, err := New(register.Config{F: f, K: k, DataLen: dataLen})
		if err != nil {
			t.Fatal(err)
		}
		cfg := reg.Config()
		states, err := reg.InitialStates(value.Zero(dataLen))
		if err != nil {
			t.Fatal(err)
		}
		policy := &lateObjects{rng: rand.New(rand.NewSource(seed)), late: map[int]bool{}}
		for len(policy.late) < f {
			policy.late[policy.rng.Intn(cfg.N())] = true
		}
		cluster := dsys.NewCluster(states, dsys.WithDataBits(cfg.DataBits()), dsys.WithPolicy(policy))
		var tasks []*dsys.TaskHandle
		for w := 1; w <= writers; w++ {
			tasks = append(tasks, cluster.Spawn(w, func(h *dsys.ClientHandle) error {
				for seq := 1; seq <= writesEach; seq++ {
					if err := reg.Write(h, value.Sequenced(w, seq, dataLen)); err != nil {
						return fmt.Errorf("writer %d, write %d: %w", w, seq, err)
					}
				}
				return nil
			}))
		}
		cluster.Start()
		for _, task := range tasks {
			if err := task.Wait(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if reason := cluster.WaitIdle(); reason != dsys.IdleQuiesced {
			t.Fatalf("seed %d: run ended %s", seed, reason)
		}
		if acct := cluster.Accountant(); acct.MaxBaseObjectBits() > cfg.N()*cfg.DataBits() {
			usedVf = true // k pieces fill Vp: more than D bits on average means Vf held replicas
		}
		winner := register.ZeroTS
		for id := 0; id < cluster.N(); id++ {
			if err := cluster.ReadObjectState(id, func(s dsys.State) {
				winner = winner.Max(maxChunkTS(append(s.(*objectState).vp, s.(*objectState).vf...)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < cluster.N(); id++ {
			if err := cluster.ReadObjectState(id, func(s dsys.State) {
				st := s.(*objectState)
				held := append(append([]register.Chunk{}, st.vp...), st.vf...)
				if len(held) != 1 || held[0].TS != winner || held[0].Block.Index != id+1 || len(held[0].Block.Data) != dataLen/k {
					t.Errorf("seed %d: object %d (late: %v) ends with Vp %+v, Vf %+v; want only piece %d of %v",
						seed, id, policy.late[id], st.vp, st.vf, id+1, winner)
				}
				if st.storedTS != winner {
					t.Errorf("seed %d: object %d ends with storedTS %v, want %v", seed, id, st.storedTS, winner)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := cluster.SampleStorage().BaseObjectBits, cfg.N()*cfg.DataBits()/k; got != want {
			t.Errorf("seed %d: quiescent storage %d bits, want (2f+k)/k·D = %d", seed, got, want)
		}
		cluster.Close()
	}
	if !usedVf {
		t.Error("no schedule pushed an object into its Vf fallback: the test does not reach the GC that needs its piece")
	}
}
