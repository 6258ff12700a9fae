package adaptive

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// objectState is the state of one base object (Algorithm 1, lines 7-9).
type objectState struct {
	index    int // base-object index i (0-based); piece i+1 belongs here
	storedTS register.Timestamp
	vp       []register.Chunk // at most k pieces of distinct writes
	vf       []register.Chunk // full replica: k pieces sharing one timestamp
}

var _ dsys.State = (*objectState)(nil)

// AppendBlocks implements dsys.State: every piece in Vp and Vf is charged;
// storedTS and the timestamps inside chunks are meta-data and are not.
func (s *objectState) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef {
	return register.AppendChunkRefs(register.AppendChunkRefs(dst, s.vp), s.vf)
}

// StoredTS exposes the object's storedTS for tests and experiments.
func (s *objectState) StoredTS() register.Timestamp { return s.storedTS }

// VpLen and VfLen expose the piece counts for tests and experiments.
func (s *objectState) VpLen() int { return len(s.vp) }

// VfLen reports the number of pieces in the full-replica field.
func (s *objectState) VfLen() int { return len(s.vf) }

// readValueResp is the response of the read round.
type readValueResp struct {
	StoredTS register.Timestamp
	Chunks   []register.Chunk
}

// readValueRMW reads storedTS, Vp and Vf without modifying the object
// (Algorithm 3, lines 25-28). Its answer rides in it: Apply fills resp and
// returns a pointer to it, so an object that answers allocates no answer. An
// RMW is applied once, and the round that sent it reads resp only once the
// answer is in.
type readValueRMW struct {
	resp readValueResp
}

var _ dsys.RMW = (*readValueRMW)(nil)

// Apply implements dsys.RMW. The response copies the chunk headers (later
// Applies compact Vp and Vf in place) and shares the block bytes, which are
// immutable once produced. The headers go into the answer's own list where it
// has room for them — an RMW a server decodes over the last one of its kind
// keeps that list's capacity — and into one of exactly their size where it
// has not, so an RMW of a round allocates that list once.
func (r *readValueRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	r.resp = readValueResp{StoredTS: s.storedTS, Chunks: register.AnswerChunks(r.resp.Chunks, s.vp, s.vf)}
	return &r.resp
}

// AppendBlocks implements dsys.RMW: a read round carries no code blocks.
func (*readValueRMW) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

// readTSResp is the response of a write's query round: the object's storedTS
// and the largest timestamp number among the pieces in Vp and Vf (zero when
// both are empty).
type readTSResp struct {
	StoredTS register.Timestamp
	MaxNum   int
}

// readTSRMW is the write's query round (Algorithm 2, lines 5-7, served by
// Algorithm 3, lines 25-28): the same atomic look at the object readValueRMW
// takes, answered with the timestamps alone — a writer picks its timestamp
// from them and never looks at a piece. Its answer rides in it, as
// readValueRMW's does.
type readTSRMW struct {
	resp readTSResp
}

var _ dsys.RMW = (*readTSRMW)(nil)

// Apply implements dsys.RMW.
func (r *readTSRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	r.resp = readTSResp{StoredTS: s.storedTS, MaxNum: max(maxChunkTS(s.vp).Num, maxChunkTS(s.vf).Num)}
	return &r.resp
}

// AppendBlocks implements dsys.RMW: the query round carries no code blocks.
func (*readTSRMW) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

// updateRMW is the second write round (Algorithm 3, lines 32-39): store the
// object's piece in Vp if there is room, otherwise fall back to storing a
// full replica in Vf, and propagate the caller's storedTS.
//
// A writer sends the update twice at most: first to every object without the
// full replica — lines 37-38 are the only ones that read it — and then, with
// it, to the objects that answered NeedFull or not at all (updateRound). So an
// object may meet two updates of one write, in either order, and Apply lets at
// most one of them store anything: one whose ts Vp or Vf already holds, and
// one that needs the replica it does not have, leave the state untouched.
//
// A decoded update borrows its request frame (borrowed): piece and full are
// views of it, and Apply copies only what it stores, on the line that stores
// it — piece through register.Retain, full through CloneChunks, which copies
// it in process too, where the updates of one write share it. An update that
// changes nothing, or that a newer write has superseded, copies nothing.
//
// tookFull is Apply's note to JournalForm that lines 37-38 fired, the one
// branch that reads full. It and borrowed share a word with k so that the
// struct stays in the allocator's 144-byte class: a node allocates one per
// update it decodes, and a writer's update round holds n of them in one array.
type updateRMW struct {
	k        int32
	tookFull bool
	borrowed bool
	ts       register.Timestamp
	storedTS register.Timestamp
	piece    register.Chunk
	full     []register.Chunk
}

var (
	_ dsys.RMW            = (*updateRMW)(nil)
	_ dsys.JournalTrimmer = (*updateRMW)(nil)
)

// Apply implements dsys.RMW.
func (u *updateRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	switch {
	case u.ts.LessEq(s.storedTS):
		// Lines 33-34: a newer write already completed its update round; this
		// write's value (or a newer one) is already durable, so ignore.
		return updateResp(0)
	case holdsTS(s.vp, u.ts):
		return respStored | respToVp | respAgain
	case holdsTS(s.vf, u.ts):
		return respStored | respAgain
	}
	resp := updateResp(0)
	switch {
	case len(s.vp) < int(u.k):
		// Lines 35-36: store the piece and drop pieces of writes older than
		// the caller's storedTS (they are superseded).
		kept := s.vp[:0]
		for _, c := range s.vp {
			if !c.TS.Less(u.storedTS) {
				kept = append(kept, c)
			}
		}
		s.vp = append(kept, register.Retain(u.piece, u.borrowed))
		resp = respStored | respToVp
	case len(s.vf) == 0 || maxChunkTS(s.vf).Less(u.ts):
		// Lines 37-38: Vp is full; store a full replica if Vf is empty or
		// holds an older value — once the writer has sent one.
		if len(u.full) == 0 {
			return respNeedFull
		}
		s.vf = register.CloneChunks(u.full)
		u.tookFull = true
		resp = respStored
	}
	// Line 39: propagate the caller's storedTS.
	s.storedTS = s.storedTS.Max(u.storedTS)
	return resp
}

// holdsTS reports whether one of chunks belongs to the write stamped ts.
func holdsTS(chunks []register.Chunk, ts register.Timestamp) bool {
	for _, c := range chunks {
		if c.TS == ts {
			return true
		}
	}
	return false
}

// JournalForm implements dsys.JournalTrimmer: unless Apply stored the full
// replica it read nothing of it, so the same update without one makes the
// same transition from the same state — every other branch is chosen by ts,
// storedTS, len(Vp) and the timestamps in Vp and Vf alone.
func (u *updateRMW) JournalForm() dsys.RMW {
	if u.tookFull || len(u.full) == 0 {
		return u
	}
	t := u.trimmed()
	return &t
}

// trimmed is u as its writer first sends it: without the full replica.
func (u *updateRMW) trimmed() updateRMW {
	t := *u
	t.full = nil
	return t
}

// AppendBlocks implements dsys.RMW: the update carries the object's piece plus,
// when it has them, the k pieces of the full replica as parameters.
func (u *updateRMW) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef {
	return register.AppendChunkRefs(append(dst, u.piece.Ref()), u.full)
}

// seedUpdateRMW is updateRMW for reconfiguration seed writes, under a kind of
// its own. Re-driving an interrupted seed over its own partial first attempt
// sends an object the update it already applied; updateRMW.Apply leaves alone
// a state that holds the update's timestamp, so a seed piece is never stored
// twice.
type seedUpdateRMW struct {
	updateRMW
}

var (
	_ dsys.RMW            = (*seedUpdateRMW)(nil)
	_ dsys.JournalTrimmer = (*seedUpdateRMW)(nil)
)

// JournalForm implements dsys.JournalTrimmer as updateRMW's does, keeping the
// seed kind.
func (u *seedUpdateRMW) JournalForm() dsys.RMW {
	if u.tookFull || len(u.full) == 0 {
		return u
	}
	return &seedUpdateRMW{u.trimmed()}
}

// updateResp reports what an update did, as a set of flags. respStored and
// respToVp say where the object holds the write: in Vp, in Vf (respStored
// alone — the one case in which the object's GC needs the piece), or nowhere,
// the update having been ignored or Vf holding a newer value. respNeedFull is
// the answer of an update without a full replica that reached lines 37-38: the
// object is as it was and the writer sends the update again, whole. It is the
// only answer that is not two bytes on the wire, and only an update without a
// replica can get it. respAgain marks the answer to an update the object had
// applied before, which changed nothing either; it stays on the object's side
// of the wire. One byte wide, an answer becomes an interface value without
// being allocated.
type updateResp uint8

const (
	respStored updateResp = 1 << iota
	respToVp
	respNeedFull
	respAgain
)

var _ dsys.NoChange = updateResp(0)

// has reports whether every flag of f is set in r.
func (r updateResp) has(f updateResp) bool { return r&f == f }

// NoChange implements dsys.NoChange.
func (r updateResp) NoChange() (unchanged, incomplete bool) {
	return r&(respNeedFull|respAgain) != 0, r.has(respNeedFull)
}

// gcRMW is the third write round (Algorithm 3, lines 40-45): drop everything
// older than ts, shrink a full replica of this very write down to the single
// piece that belongs on this object, and raise storedTS to ts.
//
// piece is only read by lines 43-44, so a writer that knows the object's
// update settled outside Vf sends none: a piece whose block is empty. An
// object that does hold the replica and is sent no piece keeps the replica
// whole — still a correct state, which a later write's GC drops — and never
// stores the empty piece.
//
// A writer that does not know sends the piece, and it may find that the
// write's update has stored nothing here: it needed a replica it did not
// carry and no follow-up came (the quorum settled without this object), or it
// is still on its way. Had the update come whole, lines 37-38 would have put
// the replica into an empty Vf and lines 43-44 would now cut it down to this
// piece, so that is what the GC leaves — every object it reaches ends up with
// its piece of a completed write, as under the algorithm as printed.
//
// A decoded GC borrows its request frame (borrowed), piece included. Most GCs
// that carry a piece reach an object whose update settled in Vp and store
// nothing, so the piece is copied (register.Retain) only on the line that
// stores it.
type gcRMW struct {
	ts       register.Timestamp
	piece    register.Chunk
	borrowed bool
}

var _ dsys.RMW = (*gcRMW)(nil)

// Apply implements dsys.RMW.
func (g *gcRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	keepVp := s.vp[:0]
	for _, c := range s.vp {
		if !c.TS.Less(g.ts) {
			keepVp = append(keepVp, c)
		}
	}
	s.vp = keepVp
	keepVf := s.vf[:0]
	for _, c := range s.vf {
		if !c.TS.Less(g.ts) {
			keepVf = append(keepVf, c)
		}
	}
	s.vf = keepVf
	// Lines 43-44: if Vf holds the full replica of this write, keep only the
	// single piece destined for this object — and if the object holds nothing
	// of the write, whose update round this GC is the first to report, that
	// piece is what the replica would have come down to.
	missed := s.storedTS.Less(g.ts) && len(s.vf) == 0 && !holdsTS(s.vp, g.ts)
	if g.hasPiece() && (missed || holdsTS(s.vf, g.ts)) {
		s.vf = []register.Chunk{register.Retain(g.piece, g.borrowed)}
	}
	s.storedTS = s.storedTS.Max(g.ts)
	return gcResp{}
}

func (g *gcRMW) hasPiece() bool { return len(g.piece.Block.Data) > 0 }

// AppendBlocks implements dsys.RMW: the GC round carries this object's piece (used
// to replace a full replica), when it carries one at all.
func (g *gcRMW) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef {
	if !g.hasPiece() {
		return dst
	}
	return append(dst, g.piece.Ref())
}

// gcResp is the (empty) response of the GC round.
type gcResp struct{}

// maxChunkTS returns the largest timestamp among chunks (ZeroTS when empty).
func maxChunkTS(chunks []register.Chunk) register.Timestamp {
	max := register.ZeroTS
	for _, c := range chunks {
		max = max.Max(c.TS)
	}
	return max
}
