package adaptive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// The write path takes two shortcuts the paper's pseudocode does not spell
// out — its query round asks for timestamps only, and its GC round leaves the
// piece out where lines 43-44 cannot fire — and the journal a third: it
// records an update without the full replica lines 37-38 did not store. These
// tests pin that none changes what the algorithm does. The update round's
// departure from the pseudocode — piece first, the replica only where Vp is
// full — has piecefirst_test.go.

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
		"piece first": {
			pieceOnly(testUpdate(3, 1, register.ZeroTS)), // room in Vp: stored
			testUpdate(3, 1, register.ZeroTS),            // its follow-up, late: held in Vp
			pieceOnly(testUpdate(5, 2, ts(3, 1))),        // Vp full: needs the replica
			testUpdate(5, 2, ts(3, 1)),                   // the follow-up: into Vf
			pieceOnly(testUpdate(5, 2, ts(3, 1))),        // the piece-only update, late: held in Vf
			pieceOnly(testUpdate(4, 3, register.ZeroTS)), // Vf is newer: settled, nothing stored
			&gcRMW{ts: ts(5, 2), piece: testChunk(5, 2, 1)},
			pieceOnly(testUpdate(6, 1, ts(5, 2))), // the GC made room: stored
		},
	}
}

// pieceOnly is u as its writer first sends it.
func pieceOnly(u *updateRMW) *updateRMW {
	t := u.trimmed()
	return &t
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
// records an update without its full replica unless lines 37-38 stored it, and
// records nothing for an update whose answer says the state is as it was — one
// that needs a replica it does not carry, or one the object applied before.
// Every schedule is applied as the writers built it to one object and, RMW by
// RMW, as a log would hold it — in its journal form, through the codec, or not
// at all — to another; responses and states must agree after every step, and
// an update keeps its replica exactly when it answered Stored && !ToVp. The
// RMW itself still carries what its writer gave it.
func TestJournalFormMakesTheSameTransition(t *testing.T) {
	whole, trimmed, unrecorded := 0, 0, 0
	for name, schedule := range mutatingSchedules() {
		live, replayed := freshObject0(t), freshObject0(t)
		for step, rmw := range schedule {
			before := encodedState(t, live)
			resp := rmw.Apply(live)
			if nc, ok := resp.(dsys.NoChange); ok {
				if unchanged, _ := nc.NoChange(); unchanged {
					if !bytes.Equal(encodedState(t, live), before) {
						t.Errorf("%s, step %d: answered %+v and changed the state", name, step, resp)
					}
					unrecorded++
					continue
				}
			}
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
			decoded, _, err := register.DecodeRMW(env)
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
			if intoVf := resp == respStored; intoVf && len(sent.full) != 2 {
				t.Errorf("%s, step %d: asking for the journal form took the replica off the RMW", name, step)
			} else if intoVf != (len(kept.full) > 0) {
				t.Errorf("%s, step %d: answered %+v, journaled with %d replica pieces", name, step, resp, len(kept.full))
			} else if intoVf {
				whole++
			} else {
				trimmed++
			}
		}
	}
	if whole == 0 || trimmed == 0 || unrecorded < 4 {
		t.Errorf("%d whole, %d trimmed and %d unrecorded updates: the schedules do not reach all three", whole, trimmed, unrecorded)
	}
}

// TestTrimmedUpdateNeverStoresAnEmptyReplica: an update without a full replica
// reaches an object whose Vp is full and whose Vf would take the write — what
// a writer's first update does whenever concurrency has reached k. The object
// stores no empty replica and does not change by a byte, line 39 included; it
// answers NeedFull, which the cluster hands back without counting or
// journaling anything. Met in a replay the same update means the log is being
// replayed onto a state other than the one it was written against
// (dsys.ErrApplyRefused): a journal never holds an update that changed nothing.
func TestTrimmedUpdateNeverStoresAnEmptyReplica(t *testing.T) {
	for _, build := range []func(u updateRMW) dsys.RMW{
		func(u updateRMW) dsys.RMW { return &u },
		func(u updateRMW) dsys.RMW { return &seedUpdateRMW{u} },
	} {
		state := freshObject0(t)
		testUpdate(3, 1, register.ZeroTS).Apply(state) // Vp: v0, w(3,1)
		before := encodedState(t, state)
		rmw := build(*pieceOnly(testUpdate(5, 2, register.Timestamp{Num: 3, Client: 1})))
		if resp := rmw.Apply(state); resp != respNeedFull {
			t.Fatalf("%T without a replica into a full Vp answered %+v", rmw, resp)
		}
		if !bytes.Equal(encodedState(t, state), before) {
			t.Fatalf("%T: the update that needs its replica changed the state", rmw)
		}
		c := dsys.NewCluster([]dsys.State{state}, dsys.WithLiveMode())
		journal := &recordingJournal{}
		c.SetJournal(journal)
		if resp, err := c.ApplyOne(0, rmw); err != nil || resp != respNeedFull {
			t.Fatalf("%T: the cluster answers %+v, %v", rmw, resp, err)
		}
		if _, err := c.ReplayApply(0, rmw); !errors.Is(err, dsys.ErrApplyRefused) {
			t.Fatalf("%T: replay reports %v, want dsys.ErrApplyRefused", rmw, err)
		}
		if journal.records != 0 || !bytes.Equal(encodedState(t, state), before) {
			t.Fatalf("%T: %d journal records, state changed: %v", rmw, journal.records, !bytes.Equal(encodedState(t, state), before))
		}
		c.Close()
	}
}

// recordingJournal counts the applies a cluster reports to it.
type recordingJournal struct{ records int }

func (j *recordingJournal) RecordApply(int, dsys.RMW) { j.records++ }
func (j *recordingJournal) RecordApplyTraced(object int, rmw dsys.RMW, _ trace.Context) {
	j.RecordApply(object, rmw)
}
func (j *recordingJournal) Refuses(dsys.RMW) error                 { return nil }
func (j *recordingJournal) DurableBlocks() []storagecost.BlockInfo { return nil }

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
			got := (&readTSRMW{}).Apply(state).(*readTSResp)
			full := (&readValueRMW{}).Apply(state).(*readValueResp)
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

// TestUpdateSegmentsAreThePayload: a follow-up's updates, written for a
// sender, are each the flat payload in segments — and the segments that are
// blocks are the write set's own memory, the replica's the same for every
// update of the round: nothing block-sized is built per update, or per round.
// An update without a replica — a write's first — sends its piece the same way.
func TestUpdateSegmentsAreThePayload(t *testing.T) {
	const k, n, blockLen = 2, 4, 4 << 10
	writeSet := make([]register.Chunk, n)
	for i := range writeSet {
		writeSet[i] = testChunk(3, 1, i+1)
		writeSet[i].Block.Data = bytes.Repeat([]byte{byte(i + 1)}, blockLen)
	}
	codec, _ := register.CodecByKind("adaptive.update")
	var w register.WireWriter
	// segments writes u for a sender and returns the segments, checking that
	// together they are the flat payload; blocks are those of them that are
	// one of the write set's blocks, by index into it.
	segments := func(u *updateRMW) (blocks []int) {
		t.Helper()
		flat, err := codec.Encode(u)
		if err != nil {
			t.Fatal(err)
		}
		w.Reset(nil, true)
		if err := codec.Write(&w, u); err != nil {
			t.Fatal(err)
		}
		segs := w.Segments(nil)
		if !bytes.Equal(bytes.Join(segs, nil), flat) || w.Len() != len(flat) {
			t.Fatalf("the segments are not the payload (%d bytes in segments, %d flat)", w.Len(), len(flat))
		}
		for _, seg := range segs {
			for i, c := range writeSet {
				if len(seg) == blockLen && &seg[0] == &c.Block.Data[0] {
					blocks = append(blocks, i)
				}
			}
		}
		if inline := len(flat) - len(blocks)*blockLen; inline > 512 {
			t.Fatalf("%d bytes of the payload were copied: more than headers", inline)
		}
		return blocks
	}
	for obj := 0; obj < n; obj++ {
		u := updateRMW{k: k, ts: writeSet[0].TS, storedTS: register.Timestamp{Num: 2, Client: 2}, piece: writeSet[obj], full: writeSet[:k:k]}
		if got, want := segments(&u), []int{obj, 0, 1}; !slices.Equal(got, want) {
			t.Fatalf("object %d: the follow-up's blocks on the wire are %v of the write set, want %v", obj, got, want)
		}
		first := u.trimmed()
		if got := segments(&first); !slices.Equal(got, []int{obj}) {
			t.Fatalf("object %d: the first update's blocks on the wire are %v of the write set, want its piece", obj, got)
		}
	}
}

// lateObjects is an adversarial schedule for the GC shortcut. RMWs on the late
// objects take effect when nothing else can move, and now and then before —
// so most rounds return at a quorum of the others, and a late object's update
// lands after its writer has sent the GC, or returned — and everything else is
// picked at random from the ready clients and each object's oldest pending
// RMW. Per object the order is FIFO, as over a connection, with one exception:
// a follow-up update (the only RMW with more than one code block in the
// channel) may overtake what its write still has pending there, the piece-only
// update it follows included, and what it overtook lands at some later point
// of its own — other writes' updates and GCs, and its own write's GC, may come
// in between. Across objects and clients the order is arbitrary.
type lateObjects struct {
	rng  *rand.Rand
	late map[int]bool
	n    int

	seen      map[int64]bool         // pending RMWs met before, by Seq
	inChannel map[oracle.WriteID]int // code blocks each write had in the channel at the last decision
	followUp  map[int64]bool         // pending RMWs that belong to a follow-up round
	held      map[int64]bool         // pending RMWs a follow-up has overtaken
	followUps int                    // follow-up rounds met
	overtaken int                    // follow-ups applied ahead of their write's piece-only update
}

func (p *lateObjects) Decide(v *dsys.View) dsys.Decision {
	if p.seen == nil {
		p.seen, p.followUp, p.held = map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
	}
	// Only a client that was run triggers RMWs, one round of them: the RMWs
	// of an operation met for the first time now are one round, and nothing
	// else has moved that write's blocks in or out of the channel.
	fresh := map[dsys.OpID][]int64{}
	for _, pd := range v.Pending {
		if !p.seen[pd.Seq] {
			p.seen[pd.Seq] = true
			fresh[pd.Op] = append(fresh[pd.Op], pd.Seq)
		}
	}
	inChannel := map[oracle.WriteID]int{}
	for _, b := range v.Storage.Blocks {
		if b.Location.Kind == storagecost.Channel {
			inChannel[b.Source.Write]++
		}
	}
	for op, round := range fresh {
		if w := op.WriteID(); inChannel[w]-p.inChannel[w] > len(round) {
			p.followUps++
			for _, seq := range round {
				p.followUp[seq] = true
			}
		}
	}
	p.inChannel = inChannel

	// Per object: the oldest pending RMW, the oldest overtaken one, and the
	// follow-up, if one is pending behind RMWs of its own write.
	next, back, jump := map[int]dsys.PendingView{}, map[int]dsys.PendingView{}, map[int]dsys.PendingView{}
	for _, pd := range v.Pending {
		oldest := next
		if p.held[pd.Seq] {
			oldest = back
		}
		if cur, ok := oldest[pd.Object]; !ok || pd.Seq < cur.Seq {
			oldest[pd.Object] = pd
		}
		if p.followUp[pd.Seq] && len(p.behind(v, pd)) > 0 {
			jump[pd.Object] = pd
		}
	}
	var moves, lateMoves []dsys.Decision
	for _, r := range v.Ready {
		moves = append(moves, dsys.Decision{Kind: dsys.KindRun, Ticket: r.Ticket})
	}
	for obj := 0; obj < p.n; obj++ { // in object order: map order would unseed the run
		pd, ok := next[obj]
		if b, overtaken := back[obj]; overtaken && (!ok || p.rng.Intn(4) == 0) {
			pd, ok = b, true
		}
		if !ok {
			continue
		}
		if fu, ok := jump[obj]; ok && p.rng.Intn(2) == 0 {
			pd = fu
		}
		d := dsys.Decision{Kind: dsys.KindApply, PendingIndex: pd.Index}
		if p.late[obj] {
			lateMoves = append(lateMoves, d)
		} else {
			moves = append(moves, d)
		}
	}
	if len(moves) == 0 || len(lateMoves) > 0 && p.rng.Intn(16) == 0 {
		moves = lateMoves
	}
	if len(moves) == 0 {
		return dsys.Decision{Kind: dsys.KindStall}
	}
	d := moves[p.rng.Intn(len(moves))]
	if d.Kind == dsys.KindApply && p.followUp[v.Pending[d.PendingIndex].Seq] {
		if overtaken := p.behind(v, v.Pending[d.PendingIndex]); len(overtaken) > 0 {
			p.overtaken++
			for _, seq := range overtaken {
				p.held[seq] = true
			}
		}
	}
	return d
}

// behind lists the RMWs of fu's own write that are pending at fu's object, were
// triggered before it and have not been overtaken yet.
func (p *lateObjects) behind(v *dsys.View, fu dsys.PendingView) (seqs []int64) {
	for _, pd := range v.Pending {
		if pd.Object == fu.Object && pd.Op == fu.Op && pd.Seq < fu.Seq && !p.held[pd.Seq] {
			seqs = append(seqs, pd.Seq)
		}
	}
	return seqs
}

// lateRun is what one run under lateObjects leaves behind.
type lateRun struct {
	peakBits             int // base-object bits at their highest
	followUps, overtaken int
}

// runUnderLateObjects runs the given number of concurrent writers, two writes
// each, at f = 2, k = 2 under lateObjects seeded with seed. Whatever the
// schedule, once everything has applied every object holds exactly its own
// piece of the write with the largest timestamp, no stored piece is empty, and
// storage is back at (2f+k)/k · D.
func runUnderLateObjects(t *testing.T, seed int64, writers int) lateRun {
	t.Helper()
	const f, k, dataLen, writesEach = 2, 2, 96, 2
	reg, err := New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	cfg := reg.Config()
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	policy := &lateObjects{rng: rand.New(rand.NewSource(seed)), late: map[int]bool{}, n: cfg.N()}
	for len(policy.late) < f {
		policy.late[policy.rng.Intn(cfg.N())] = true
	}
	cluster := dsys.NewCluster(states, dsys.WithDataBits(cfg.DataBits()), dsys.WithPolicy(policy))
	defer cluster.Close()
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
				t.Errorf("seed %d, %d writers: object %d (late: %v) ends with Vp %+v, Vf %+v; want only piece %d of %v",
					seed, writers, id, policy.late[id], st.vp, st.vf, id+1, winner)
			}
			if st.storedTS != winner {
				t.Errorf("seed %d, %d writers: object %d ends with storedTS %v, want %v", seed, writers, id, st.storedTS, winner)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cluster.SampleStorage().BaseObjectBits, cfg.N()*cfg.DataBits()/k; got != want {
		t.Errorf("seed %d, %d writers: quiescent storage %d bits, want (2f+k)/k·D = %d", seed, writers, got, want)
	}
	return lateRun{peakBits: cluster.Accountant().MaxBaseObjectBits(), followUps: policy.followUps, overtaken: policy.overtaken}
}

// TestGCShortcutUnderLateUpdates runs k+2 concurrent writers — enough for
// updates to find Vp full, ask for the replica and fall back to Vf — under
// lateObjects, thirty times over, with runUnderLateObjects' ending every time.
// Between them the schedules must put a replica into some Vf, the one place a
// GC needs its piece, and deliver some write's piece-only update after its
// follow-up at the same object: the update an object must not apply twice.
func TestGCShortcutUnderLateUpdates(t *testing.T) {
	const n, dataBits = 6, 8 * 96
	usedVf, followUps, overtaken := false, 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		run := runUnderLateObjects(t, seed, 4)
		if run.peakBits > n*dataBits {
			usedVf = true // k pieces fill Vp: more than D bits on average means Vf held replicas
		}
		followUps += run.followUps
		overtaken += run.overtaken
	}
	if !usedVf {
		t.Error("no schedule pushed an object into its Vf fallback: the test does not reach the GC that needs its piece")
	}
	if followUps == 0 || overtaken == 0 {
		t.Errorf("%d follow-up rounds, %d of their updates applied before the piece-only update they follow: the test does not reach the update an object meets twice", followUps, overtaken)
	}
}
