package transport

import (
	"bufio"
	"bytes"
	"slices"
	"sync"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// recordingJournal keeps the envelope of every RMW journaled, in the form the
// write-ahead log records (dsys.JournalTrimmer).
type recordingJournal struct {
	mu      sync.Mutex
	records [][]byte
}

func (j *recordingJournal) RecordApply(object int, rmw dsys.RMW) {
	if t, ok := rmw.(dsys.JournalTrimmer); ok {
		rmw = t.JournalForm()
	}
	env, err := register.EncodeEnvelope(dsys.OpID{}, object, rmw)
	if err != nil {
		panic(err)
	}
	b, err := env.MarshalBinary()
	if err != nil {
		panic(err)
	}
	j.mu.Lock()
	j.records = append(j.records, b)
	j.mu.Unlock()
}

func (j *recordingJournal) RecordApplyTraced(object int, rmw dsys.RMW, _ trace.Context) {
	j.RecordApply(object, rmw)
}
func (j *recordingJournal) Refuses(dsys.RMW) error                 { return nil }
func (j *recordingJournal) DurableBlocks() []storagecost.BlockInfo { return nil }

// The objects of mixedServer: every provider's, one after the other, in one
// cluster. Pieces are reuseBlockLen bytes.
const (
	reuseBlockLen = 600
	adaptiveObj   = 0  // adaptive, f = 1, k = 2: objects 0-3
	abdObj        = 4  // abd, f = 1: objects 4-6
	safeObj       = 7  // safereg, f = 1, k = 2: objects 7-10
	ecObj         = 11 // ecreg, f = 1, k = 2: objects 11-14
)

// mixedServer serves the base objects of all four providers from one
// cluster, journaled.
func mixedServer(tb testing.TB) (*Server, *recordingJournal) {
	tb.Helper()
	coded := register.Config{F: 1, K: 2, DataLen: 2 * reuseBlockLen}
	var states []dsys.State
	for _, build := range []func() (register.Register, error){
		func() (register.Register, error) { return adaptive.New(coded) },
		func() (register.Register, error) {
			return safereg.NewABD(register.Config{F: 1, K: 1, DataLen: reuseBlockLen})
		},
		func() (register.Register, error) { return safereg.New(coded) },
		func() (register.Register, error) { return ecreg.New(coded) },
	} {
		reg, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		more, err := reg.InitialStates(value.Zero(reg.Config().DataLen))
		if err != nil {
			tb.Fatal(err)
		}
		states = append(states, more...)
	}
	cluster := dsys.NewCluster(states, dsys.WithLiveMode())
	tb.Cleanup(cluster.Close)
	journal := &recordingJournal{}
	cluster.SetJournal(journal)
	return NewServer(cluster), journal
}

// reuseRequest is one request of TestReusedRMWCarriesNothingOver.
type reuseRequest struct {
	obj     int
	kind    string
	payload []byte
}

// reuseRequests is a run in which each kind's request is followed by one of
// the same kind that leaves out what the first carried, or that finds the
// object holding less: a GC with a piece and one without, a follow-up update
// with the replica and a first update without it, a read of an object holding
// two chunks and one of an object holding none.
func reuseRequests() []reuseRequest {
	piece := func(num, index int, fill byte) register.Chunk {
		return filledPiece(num, 1, index, fill, reuseBlockLen)
	}
	chunk := func(c register.Chunk) []byte {
		var w register.WireWriter
		w.Chunk(c)
		return w.Finish()
	}
	update := func(num int, p register.Chunk, full ...register.Chunk) []byte {
		var w register.WireWriter
		w.Int(2)
		w.TS(register.Timestamp{Num: num, Client: 1})
		w.TS(register.ZeroTS)
		w.Chunk(p)
		w.Chunks(full)
		return w.Finish()
	}
	gc := func(num int, p register.Chunk) []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: num, Client: 1})
		w.Chunk(p)
		return w.Finish()
	}
	commit := func(num int) []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: num, Client: 1})
		return w.Finish()
	}
	a := adaptiveObj
	return []reuseRequest{
		// Adaptive. Object 0's Vp fills up, so the follow-up update stores
		// its replica in Vf; the first update after it, without a replica,
		// must answer NeedFull, not store the replica the last one carried.
		{a, "adaptive.update", update(1, piece(1, 1, 0x11))},
		{a, "adaptive.update", update(2, piece(2, 1, 0x21), piece(2, 1, 0x22), piece(2, 2, 0x23))},
		{a, "adaptive.update", update(3, piece(3, 1, 0x31))},
		// Object 3's Vp has room: the replica this follow-up carries is not
		// stored, and the journal gets the update without it.
		{a + 3, "adaptive.update", update(4, piece(4, 4, 0x41), piece(4, 1, 0x42), piece(4, 2, 0x43))},
		{a + 1, "adaptive.seedupdate", update(1, piece(1, 2, 0x51), piece(1, 1, 0x52), piece(1, 2, 0x53))},
		{a + 1, "adaptive.seedupdate", update(1, piece(1, 2, 0x54))},
		// A GC with its piece shrinks object 0's replica to it; one without
		// a piece finds object 2 holding nothing of its write and must store
		// nothing, not the piece the last GC carried.
		{a, "adaptive.gc", gc(2, piece(2, 1, 0x61))},
		{a + 2, "adaptive.gc", gc(5, register.Chunk{})},
		// Object 1 holds two chunks, object 2 none.
		{a + 1, "adaptive.read", nil},
		{a + 2, "adaptive.read", nil},
		{a, "adaptive.read", nil},
		{a + 3, "adaptive.readts", nil},
		{a + 2, "adaptive.readts", nil},
		// abd: a stored replica and a stale one, read back.
		{abdObj, "abd.update", chunk(piece(1, 1, 0x71))},
		{abdObj + 1, "abd.update", chunk(register.Chunk{})},
		{abdObj, "abd.read", nil},
		{abdObj + 1, "abd.read", nil},
		// Safe register: the same.
		{safeObj, "safe.update", chunk(piece(1, 1, 0x81))},
		{safeObj + 1, "safe.update", chunk(register.Chunk{})},
		{safeObj, "safe.read", nil},
		{safeObj + 1, "safe.read", nil},
		// Erasure-coded register: object 11 collects three pieces, a seed
		// store repeated changes nothing, and object 12's commit reclaims
		// its one piece.
		{ecObj, "ec.store", chunk(piece(1, 1, 0x91))},
		{ecObj, "ec.seedstore", chunk(piece(2, 1, 0x92))},
		{ecObj, "ec.seedstore", chunk(piece(2, 1, 0x93))},
		{ecObj + 1, "ec.commit", commit(3)},
		{ecObj, "ec.read", nil},
		{ecObj + 1, "ec.read", nil},
		{ecObj + 1, "ec.commit", commit(1)},
	}
}

// TestReusedRMWCarriesNothingOver serves one run of requests of every
// provider twice: on one connection, which reads each frame over the last and
// decodes each RMW over the last of its kind, and on a server of its own that
// decodes every request fresh from a frame nobody overwrites. After every
// request the two answered alike — a GC, which is posted, not at all — hold
// the same states and journaled the same records.
func TestReusedRMWCarriesNothingOver(t *testing.T) {
	reused, reusedLog := mixedServer(t)
	fresh, freshLog := mixedServer(t)
	reqs := reuseRequests()
	var stream []byte
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		bodies[i], err = dsys.Envelope{Op: dsys.OpID{Client: 1, Seq: i}, Object: r.obj, Kind: r.kind, Payload: r.payload}.MarshalBinary()
		stream = append(stream, flatFrame(t, uint64(i), bodies[i], err)...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var cs connState
	var w register.WireWriter
	for i, r := range reqs {
		if err := reused.serveNext(&cs, br); err != nil {
			t.Fatal(err)
		}
		got := bytes.Join(cs.w.Segments(nil), nil)
		var rmws register.Decoded
		resp, c, out := fresh.serve(bodies[i], &rmws)
		if resp.Status != dsys.StatusOK {
			t.Fatalf("request %d (%s): %v %s", i, r.kind, resp.Status, resp.Detail)
		}
		var want []byte
		if !c.Posted {
			if _, err := writeResponseFrame(&w, uint64(i), resp, c, out); err != nil {
				t.Fatal(err)
			}
			want = bytes.Join(w.Segments(nil), nil)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d (%s to object %d): the reused RMW answered\n  %x\nwant\n  %x", i, r.kind, r.obj, got, want)
		}
		for obj := range reused.cluster.N() {
			if got, want := encodedState(t, reused, obj), encodedState(t, fresh, obj); !bytes.Equal(got, want) {
				t.Fatalf("after request %d (%s to object %d): object %d holds\n  %x\nwant\n  %x", i, r.kind, r.obj, obj, got, want)
			}
		}
		if !slices.EqualFunc(reusedLog.records, freshLog.records, bytes.Equal) {
			t.Fatalf("after request %d (%s to object %d): the journals differ", i, r.kind, r.obj)
		}
	}
	if len(reusedLog.records) == 0 {
		t.Fatal("nothing was journaled")
	}
}

// encodedState is the state codec's encoding of one object of srv's cluster.
func encodedState(t *testing.T, srv *Server, obj int) []byte {
	t.Helper()
	var payload []byte
	err := srv.cluster.ReadObjectState(obj, func(s dsys.State) {
		var err error
		if _, payload, err = register.EncodeState(s); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}
