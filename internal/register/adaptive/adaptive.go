// Package adaptive implements the paper's main algorithmic contribution
// (Section 5, Algorithms 1-3 and Appendices C-D): a strongly regular,
// FW-terminating MWMR register emulation that combines a k-of-n erasure code
// with full replication so that its storage cost is O(min(f, c) · D).
//
// Each base object bo_i holds three fields:
//
//   - Vp: a set of timestamped code pieces, at most one per write, capped at
//     k entries. While concurrency is below k the algorithm behaves like a
//     pure erasure-coded store.
//   - Vf: a full replica of a single value, represented as k pieces with one
//     timestamp. When Vp is full (concurrency at least k), writers fall back
//     to storing a full replica here — this is the replication end of the
//     trade-off, and it is what caps the per-object storage at O(D)
//     independently of the concurrency level.
//   - storedTS: the highest timestamp whose write is known to have completed
//     its update round; updates with timestamps at most storedTS are ignored
//     and stale pieces below it are garbage collected.
//
// A write performs three rounds: read timestamps (kind adaptive.readts, which
// answers with timestamps only), update (adaptive.update) and garbage-collect
// (adaptive.gc). In process each waits for n-f responses. The update round is
// piece-first — the full replica follows, in a round of its own, only to
// objects whose Vp is full (updateRound; DESIGN.md argues it against
// Algorithm 2 as printed). The GC is a posted kind: over a wire the writer
// returns once its GC requests are queued on the ordered per-node
// connections, and no node answers them (DESIGN.md, "the posted GC round").
// A read
// repeatedly collects the contents of n-f objects (adaptive.read) until it
// sees k distinct pieces of a single value whose timestamp is at least the
// highest storedTS it observed, then decodes. Its first round is lean: it asks
// only k+f objects for their contents and the other f for timestamps
// (readValue; DESIGN.md argues it against Algorithm 3 as printed).
package adaptive

import (
	"fmt"
	"slices"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// Keys of the memory a handle lends each round of an operation
// (dsys.RoundMemory).
const (
	readTSKey = register.RoundKeys + iota
	updateKey
	followUpKey
	gcKey
	readKey
)

// DefaultReadRetryBudget bounds the number of read rounds before Read gives
// up with register.ErrReadStarved. FW-termination only promises that reads
// terminate in runs with finitely many writes; the budget keeps tests and
// experiments from spinning forever if that assumption is violated.
const DefaultReadRetryBudget = 10_000

// Register is the adaptive register emulation. It is stateless apart from its
// configuration: all mutable state lives in the base objects.
type Register struct {
	cfg             register.Config
	readRetryBudget int
}

var _ register.Register = (*Register)(nil)

// New builds an adaptive register for the given configuration.
func New(cfg register.Config) (*Register, error) {
	v, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Register{cfg: v, readRetryBudget: DefaultReadRetryBudget}, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return fmt.Sprintf("adaptive(f=%d,k=%d)", r.cfg.F, r.cfg.K) }

// Config implements register.Register.
func (r *Register) Config() register.Config { return r.cfg }

// SetReadRetryBudget overrides the read retry budget (tests use small values).
func (r *Register) SetReadRetryBudget(n int) { r.readRetryBudget = n }

// InitialStates implements register.Register: base object i starts with the
// i-th piece of v0 in Vp under the zero timestamp (Algorithm 1, line 9).
func (r *Register) InitialStates(v0 value.Value) ([]dsys.State, error) {
	chunks, err := register.InitialChunks(r.cfg, v0)
	if err != nil {
		return nil, err
	}
	states := make([]dsys.State, r.cfg.N())
	for i := 0; i < r.cfg.N(); i++ {
		states[i] = &objectState{
			index:    i,
			storedTS: register.ZeroTS,
			vp:       []register.Chunk{chunks[i]},
		}
	}
	return states, nil
}

// Write implements register.Register (Algorithm 2, lines 3-15).
func (r *Register) Write(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()

	// Encode v into n pieces via the write oracle; the client holds the
	// WriteSet locally for the duration of the operation. The handle copies
	// its list of them, so the list stays on the stack.
	writeSet, err := register.WriteChunks(h, r.cfg, op.WriteID(), v)
	if err != nil {
		return err
	}
	var refs [32]dsys.BlockRef
	h.SetLocalBlocks(register.AppendChunkRefs(refs[:0], writeSet))

	// Round 1: read timestamps (lines 5-7).
	storedTS, maxNum, err := readTimestamps(h, r.cfg)
	if err != nil {
		return err
	}
	ts := register.Timestamp{Num: maxNum + 1, Client: h.ID()}
	for i := range writeSet {
		writeSet[i].TS = ts
	}

	// Round 2: update (lines 8-10). What the GC round needs of its answers is
	// a flag per object, on the stack for every n up to 32.
	var onStack [32]bool
	needsPiece := slices.Grow(onStack[:0], r.cfg.N())[:r.cfg.N()]
	if err := updateRound(h, r.cfg, ts, storedTS, writeSet, false, needsPiece); err != nil {
		return err
	}

	// Round 3: garbage collection (lines 11-13). An object whose update is
	// known to have settled without putting this write into Vf has nothing
	// for lines 43-44 to shrink, and its GC travels without the piece.
	return collectGarbage(h, r.cfg, ts, writeSet, needsPiece)
}

// updateRound runs a write's update round piece-first. Every object is sent
// its piece and no full replica — lines 37-38 alone read one — and answers
// either that the update is settled there (stored in Vp, ignored, or Vf
// already newer) or, with its state untouched, that it needs the replica. If
// fewer than a quorum settled, a follow-up round takes the update with the
// replica (its k blocks shared read-only, down to the socket) to the objects that
// need it and to those that have not answered — they may be merely slow, and
// the ones that answered may crash — and waits for the rest of the quorum
// among them. An object applies at most one of the two (updateRMW.Apply).
//
// It records in needsPiece, one flag per object, which objects the GC must
// bring the piece: those whose last known answer leaves open that Vf holds
// the replica (the follow-up said so, or has not answered) or that the update
// has stored nothing yet (it needs the replica and no follow-up went out, or
// it has not answered at all). needsPiece comes in all false; nil records
// nothing.
func updateRound(h *dsys.ClientHandle, cfg register.Config, ts, storedTS register.Timestamp, writeSet []register.Chunk, seed bool, needsPiece []bool) error {
	// Each of the two rounds builds its updates in round memory of its own,
	// and one array serves either kind: an update is a seed update's only
	// field.
	k := int32(cfg.K)
	update := func(rmws []seedUpdateRMW, obj int, full []register.Chunk) dsys.RMW {
		u := &rmws[obj]
		u.updateRMW = updateRMW{k: k, ts: ts, storedTS: storedTS, piece: writeSet[obj], full: full}
		if seed {
			return u
		}
		return &u.updateRMW
	}
	updates := dsys.RoundMemory[seedUpdateRMW](h, updateKey, len(writeSet))
	first, err := h.InvokeAll(func(obj int) dsys.RMW { return update(updates, obj, nil) }, cfg.Quorum())
	if err != nil {
		return err
	}
	// The follow-up's answers land in the handle's slots, over the first
	// round's: rest is all this function keeps of those.
	var onStack [32]int
	rest := onStack[:0]
	for obj := range writeSet {
		if resp, answered := first[obj].(updateResp); !answered || resp.has(respNeedFull) {
			rest = append(rest, obj)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	var second []any
	if lacking := cfg.Quorum() - (len(writeSet) - len(rest)); lacking > 0 {
		full := writeSet[:cfg.K:cfg.K]
		followUps := dsys.RoundMemory[seedUpdateRMW](h, followUpKey, len(writeSet))
		second, err = h.Invoke(rest, func(obj int) dsys.RMW { return update(followUps, obj, full) }, lacking)
		if err != nil {
			return err
		}
	}
	if needsPiece == nil {
		return nil
	}
	for _, obj := range rest {
		var answer any // none when no follow-up went out
		if second != nil {
			answer = second[obj]
		}
		resp, answered := answer.(updateResp)
		needsPiece[obj] = !answered || resp.has(respStored) && !resp.has(respToVp)
	}
	return nil
}

// collectGarbage runs the GC round at ts. needsPiece, one flag per object,
// says which objects may hold this write's full replica in Vf, or nothing of
// the write at all; the others get a GC without a piece. Over a wire the round
// is posted: it returns once the GCs are on their way (dsys.RoundInvoker).
func collectGarbage(h *dsys.ClientHandle, cfg register.Config, ts register.Timestamp, writeSet []register.Chunk, needsPiece []bool) error {
	gcs := dsys.RoundMemory[gcRMW](h, gcKey, len(writeSet))
	_, err := h.InvokeAll(func(obj int) dsys.RMW {
		g := &gcs[obj]
		g.ts = ts
		if needsPiece[obj] {
			g.piece = writeSet[obj]
		}
		return g
	}, cfg.Quorum())
	return err
}

// WriteSeed implements register.Register: update and GC rounds at the fixed
// register.SeedTS with no read round (the target is a fresh register whose
// writes are held, so the stored timestamp is known to be zero). Re-driving an
// interrupted seed over its own partial first attempt never stores a piece
// twice: an object applies an update once.
func (r *Register) WriteSeed(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	writeSet, err := register.SeedChunks(h, r.cfg, op, v)
	if err != nil {
		return err
	}
	var refs [32]dsys.BlockRef
	h.SetLocalBlocks(register.AppendChunkRefs(refs[:0], writeSet))
	if err := updateRound(h, r.cfg, register.SeedTS, register.ZeroTS, writeSet, true, nil); err != nil {
		return err
	}
	// An earlier attempt's follow-up may have left the full replica in any
	// object's Vf, whatever this attempt's answers say: every GC carries its
	// piece.
	var onStack [32]bool
	everyObject := slices.Grow(onStack[:0], r.cfg.N())[:r.cfg.N()]
	for obj := range everyObject {
		everyObject[obj] = true
	}
	return collectGarbage(h, r.cfg, register.SeedTS, writeSet, everyObject)
}

// Read implements register.Register (Algorithm 2, lines 16-22).
func (r *Register) Read(h *dsys.ClientHandle) (value.Value, error) {
	v, _, err := r.ReadTimestamped(h)
	return v, err
}

// ReadTimestamped implements register.Register: the same read loop,
// additionally reporting the timestamp of the decoded value.
func (r *Register) ReadTimestamped(h *dsys.ClientHandle) (value.Value, register.Timestamp, error) {
	h.BeginOp(dsys.OpRead)
	defer h.EndOp()

	// The lean round comes first and outside the budget, which counts rounds
	// as printed: FW-termination is argued for those. Every attempt gathers
	// its read set in one buffer, on the stack while it holds at most 16
	// chunks.
	var onStack [16]register.Chunk
	for attempt := -1; attempt < r.readRetryBudget; attempt++ {
		storedTS, readSet, err := readValue(h, r.cfg, attempt < 0, onStack[:0])
		if err != nil {
			return value.Value{}, register.ZeroTS, err
		}
		if v, ts, ok, err := register.DecodeBest(h, r.cfg, readSet, storedTS); ok {
			return v, ts, err
		}
	}
	return value.Value{}, register.ZeroTS, register.ErrReadStarved
}

// readSlot is an object's RMW of the read round, of either kind, and the
// window its piece headers come back in.
type readSlot struct {
	value readValueRMW
	ts    readTSRMW
	head  [1]register.Chunk
}

// readValue is the read round: it returns the highest storedTS among the n-f
// objects that answered together with the union of the chunks they sent,
// appended to buf.
//
// The round as printed (Algorithm 3, lines 23-31) collects Vp, Vf and storedTS
// from every object. The lean round asks only objects 0..k+f-1 for them — the
// holders of the k data blocks and f parity holders — and the other f for
// their timestamps alone. Since n-f = k+f, any quorum still holds at least k
// answers with pieces, and its highest storedTS is the one a full round would
// have seen; what a lean round may lack is a k-th piece at that timestamp, and
// then the caller runs the round as printed.
func readValue(h *dsys.ClientHandle, cfg register.Config, lean bool, buf []register.Chunk) (register.Timestamp, []register.Chunk, error) {
	withPieces := cfg.N()
	if lean {
		withPieces = cfg.Quorum()
	}
	// Each object is sent one of the two kinds, and one array holds both. In
	// process a retry reuses the array: nothing of an attempt is kept past
	// it.
	rmws := dsys.RoundMemory[readSlot](h, readKey, cfg.N())
	// An object answers with the headers of the pieces it holds — one, when it
	// is quiescent — into the RMW's list: a window of one header beside the
	// RMW, so only an object that holds more allocates a list. In process the
	// object's Apply fills it; over a wire the client decodes the answer into
	// it, on the round's goroutine and only before the round returns.
	for obj := 0; obj < withPieces; obj++ {
		rmws[obj].value.resp.Chunks = rmws[obj].head[:0]
	}
	resp, err := h.InvokeAll(func(obj int) dsys.RMW {
		if obj < withPieces {
			return &rmws[obj].value
		}
		return &rmws[obj].ts
	}, cfg.Quorum())
	if err != nil {
		return register.ZeroTS, nil, err
	}
	maxTS, pieces := register.ZeroTS, 0
	// Iterate objects in ID order for determinism.
	for obj := 0; obj < cfg.N(); obj++ {
		switch rv := resp[obj].(type) {
		case nil: // no answer yet
		case *readValueResp:
			maxTS = maxTS.Max(rv.StoredTS)
			pieces += len(rv.Chunks)
		case *readTSResp:
			maxTS = maxTS.Max(rv.StoredTS)
		default:
			return register.ZeroTS, nil, fmt.Errorf("adaptive: unexpected readValue response %T", rv)
		}
	}
	readSet := slices.Grow(buf, pieces)
	for obj := 0; obj < cfg.N(); obj++ {
		if rv, ok := resp[obj].(*readValueResp); ok {
			readSet = append(readSet, rv.Chunks...)
		}
	}
	return maxTS, readSet, nil
}

// readTimestamps is the write's query round (Algorithm 2, lines 5-7): it
// collects storedTS and the largest timestamp number in Vp ∪ Vf from n-f base
// objects — the only things the writer takes from that round — and returns the
// highest storedTS together with the largest number seen anywhere.
func readTimestamps(h *dsys.ClientHandle, cfg register.Config) (register.Timestamp, int, error) {
	rmws := dsys.RoundMemory[readTSRMW](h, readTSKey, cfg.N())
	resp, err := h.InvokeAll(func(obj int) dsys.RMW { return &rmws[obj] }, cfg.Quorum())
	if err != nil {
		return register.ZeroTS, 0, err
	}
	maxTS, maxNum := register.ZeroTS, 0
	for _, raw := range resp {
		if raw == nil {
			continue // no answer
		}
		rt, ok := raw.(*readTSResp)
		if !ok {
			return register.ZeroTS, 0, fmt.Errorf("adaptive: unexpected readTimestamps response %T", raw)
		}
		maxTS = maxTS.Max(rt.StoredTS)
		maxNum = max(maxNum, rt.MaxNum)
	}
	return maxTS, max(maxNum, maxTS.Num), nil
}
