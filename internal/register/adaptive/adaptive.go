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

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
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

var (
	_ register.Register   = (*Register)(nil)
	_ register.SeedWriter = (*Register)(nil)
)

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
	if v.SizeBytes() != r.cfg.DataLen {
		return fmt.Errorf("%w: value has %d bytes, config says %d", register.ErrConfig, v.SizeBytes(), r.cfg.DataLen)
	}
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()

	// Encode v into n pieces via the write oracle; the client holds the
	// WriteSet locally for the duration of the operation.
	writeSet, enc, err := register.EncodeWrite(r.cfg, op.WriteID(), v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(writeSet))

	// Round 1: read timestamps (lines 5-7).
	storedTS, maxNum, err := readTimestamps(h, r.cfg)
	if err != nil {
		return err
	}
	ts := register.Timestamp{Num: maxNum + 1, Client: h.ID()}
	for i := range writeSet {
		writeSet[i].TS = ts
	}

	// Round 2: update (lines 8-10).
	needsPiece, err := updateRound(h, r.cfg, ts, storedTS, writeSet, false)
	if err != nil {
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
// The result says which objects the GC must bring the piece: those whose last
// known answer leaves open that Vf holds the replica (the follow-up said so,
// or has not answered) or that the update has stored nothing yet (it needs
// the replica and no follow-up went out, or it has not answered at all).
func updateRound(h *dsys.ClientHandle, cfg register.Config, ts, storedTS register.Timestamp, writeSet []register.Chunk, seed bool) (func(obj int) bool, error) {
	// Each of the two rounds builds its updates in an array of its own — a
	// straggler of the first may still be applied while the second runs — and
	// one array serves either kind: an update is a seed update's only field.
	k := int32(cfg.K)
	updates := func(full []register.Chunk) func(obj int) dsys.RMW {
		rmws := make([]seedUpdateRMW, len(writeSet))
		return func(obj int) dsys.RMW {
			u := &rmws[obj]
			u.updateRMW = updateRMW{k: k, ts: ts, storedTS: storedTS, piece: writeSet[obj], full: full}
			if seed {
				return u
			}
			return &u.updateRMW
		}
	}
	// The follow-up's answers land in the handle's slots, over the first
	// round's: rest is all this function keeps of those.
	first, err := h.InvokeAll(updates(nil), cfg.Quorum())
	if err != nil {
		return nil, err
	}
	var rest []int
	for obj := range writeSet {
		if resp, answered := first[obj].(updateResp); !answered || resp.has(respNeedFull) {
			rest = append(rest, obj)
		}
	}
	if len(rest) == 0 {
		return func(int) bool { return false }, nil
	}
	var second []any
	if lacking := cfg.Quorum() - (len(writeSet) - len(rest)); lacking > 0 {
		second, err = h.Invoke(rest, updates(writeSet[:cfg.K:cfg.K]), lacking)
		if err != nil {
			return nil, err
		}
	}
	needsPiece := make([]bool, len(writeSet))
	for _, obj := range rest {
		var answer any // none when no follow-up went out
		if second != nil {
			answer = second[obj]
		}
		resp, answered := answer.(updateResp)
		needsPiece[obj] = !answered || resp.has(respStored) && !resp.has(respToVp)
	}
	return func(obj int) bool { return needsPiece[obj] }, nil
}

// collectGarbage runs the GC round at ts. needsPiece says which objects may
// hold this write's full replica in Vf, or nothing of the write at all; the
// others get a GC without a piece. Over a wire the round is posted: it
// returns once the GCs are on their way (dsys.RoundInvoker).
func collectGarbage(h *dsys.ClientHandle, cfg register.Config, ts register.Timestamp, writeSet []register.Chunk, needsPiece func(obj int) bool) error {
	gcs := make([]gcRMW, len(writeSet))
	_, err := h.InvokeAll(func(obj int) dsys.RMW {
		g := &gcs[obj]
		g.ts = ts
		if needsPiece(obj) {
			g.piece = writeSet[obj]
		}
		return g
	}, cfg.Quorum())
	return err
}

// WriteSeed implements register.SeedWriter: update and GC rounds at the fixed
// register.SeedTS with no read round (the target is a fresh register whose
// writes are held, so the stored timestamp is known to be zero). Re-driving an
// interrupted seed over its own partial first attempt never stores a piece
// twice: an object applies an update once.
func (r *Register) WriteSeed(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	writeSet, enc, err := register.SeedChunks(r.cfg, op, v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(writeSet))
	if _, err := updateRound(h, r.cfg, register.SeedTS, register.ZeroTS, writeSet, true); err != nil {
		return err
	}
	// An earlier attempt's follow-up may have left the full replica in any
	// object's Vf, whatever this attempt's answers say: every GC carries its
	// piece.
	return collectGarbage(h, r.cfg, register.SeedTS, writeSet, func(int) bool { return true })
}

// Read implements register.Register (Algorithm 2, lines 16-22).
func (r *Register) Read(h *dsys.ClientHandle) (value.Value, error) {
	v, _, err := r.ReadTimestamped(h)
	return v, err
}

// ReadTimestamped implements register.TimestampedReader: the same read loop,
// additionally reporting the timestamp of the decoded value.
func (r *Register) ReadTimestamped(h *dsys.ClientHandle) (value.Value, register.Timestamp, error) {
	h.BeginOp(dsys.OpRead)
	defer h.EndOp()

	// The lean round comes first and outside the budget, which counts rounds
	// as printed: FW-termination is argued for those.
	for attempt := -1; attempt < r.readRetryBudget; attempt++ {
		storedTS, readSet, err := readValue(h, r.cfg, attempt < 0)
		if err != nil {
			return value.Value{}, register.ZeroTS, err
		}
		if chunks, ts, ok := register.BestDecodable(readSet, storedTS, r.cfg.K); ok {
			v, err := register.DecodeChunks(r.cfg, chunks)
			return v, ts, err
		}
	}
	return value.Value{}, register.ZeroTS, register.ErrReadStarved
}

// readValue is the read round: it returns the highest storedTS among the n-f
// objects that answered together with the union of the chunks they sent.
//
// The round as printed (Algorithm 3, lines 23-31) collects Vp, Vf and storedTS
// from every object. The lean round asks only objects 0..k+f-1 for them — the
// holders of the k data blocks and f parity holders — and the other f for
// their timestamps alone. Since n-f = k+f, any quorum still holds at least k
// answers with pieces, and its highest storedTS is the one a full round would
// have seen; what a lean round may lack is a k-th piece at that timestamp, and
// then the caller runs the round as printed.
func readValue(h *dsys.ClientHandle, cfg register.Config, lean bool) (register.Timestamp, []register.Chunk, error) {
	withPieces := cfg.N()
	if lean {
		withPieces = cfg.Quorum()
	}
	// Each object is sent one of the two kinds, and one array holds both.
	rmws := make([]struct {
		value readValueRMW
		ts    readTSRMW
	}, cfg.N())
	if h.InProcess() {
		// An object answers with the headers of the pieces it holds — one, when
		// it is quiescent — into the RMW's list: in process, a window of one
		// header in an array of the round's, so only an object that holds more
		// allocates a list. Over a wire the client decodes a list of its own.
		heads := make([]register.Chunk, withPieces)
		for obj := range heads {
			rmws[obj].value.resp.Chunks = heads[obj : obj : obj+1]
		}
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
	readSet := make([]register.Chunk, 0, pieces)
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
	rmws := make([]readTSRMW, cfg.N())
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
