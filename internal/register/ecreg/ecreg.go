// Package ecreg implements a pure erasure-coded register baseline in the
// style of the asynchronous code-based algorithms the paper cites ([5], [6],
// [8], [9]): base objects store one coded piece per write and may only
// garbage-collect pieces of writes that are known to have completed.
//
// The algorithm is regular and FW-terminating, and when writes are
// sequential its storage is the ideal n·D/k bits. Its weakness — the one the
// paper's lower bound shows is unavoidable without falling back to
// replication — is that with c concurrent writes every base object can
// accumulate up to c+1 pieces, for a total of Θ(c·D) bits, because a piece
// of an incomplete write can never be dropped safely (coded pieces of
// different writes cannot be combined into a readable value).
package ecreg

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// DefaultReadRetryBudget bounds read retries, as in the adaptive register.
const DefaultReadRetryBudget = 10_000

// Register is the pure erasure-coded register baseline.
type Register struct {
	cfg             register.Config
	readRetryBudget int
}

var (
	_ register.Register   = (*Register)(nil)
	_ register.SeedWriter = (*Register)(nil)
)

// New builds the baseline register for the given configuration.
func New(cfg register.Config) (*Register, error) {
	v, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Register{cfg: v, readRetryBudget: DefaultReadRetryBudget}, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return fmt.Sprintf("ecreg(f=%d,k=%d)", r.cfg.F, r.cfg.K) }

// Config implements register.Register.
func (r *Register) Config() register.Config { return r.cfg }

// SetReadRetryBudget overrides the read retry budget.
func (r *Register) SetReadRetryBudget(n int) { r.readRetryBudget = n }

// InitialStates implements register.Register.
func (r *Register) InitialStates(v0 value.Value) ([]dsys.State, error) {
	chunks, err := register.InitialChunks(r.cfg, v0)
	if err != nil {
		return nil, err
	}
	states := make([]dsys.State, r.cfg.N())
	for i := range states {
		states[i] = &objectState{index: i, pieces: []register.Chunk{chunks[i]}}
	}
	return states, nil
}

// Write implements register.Register: read-timestamp round, store round,
// commit round. The store round appends the piece unconditionally (there is
// no cap and no replication fallback); the commit round advances the
// object's committed timestamp, which is the only thing that allows pieces of
// older writes to be reclaimed.
func (r *Register) Write(h *dsys.ClientHandle, v value.Value) error {
	if v.SizeBytes() != r.cfg.DataLen {
		return fmt.Errorf("%w: value has %d bytes, config says %d", register.ErrConfig, v.SizeBytes(), r.cfg.DataLen)
	}
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	pieces, enc, err := register.EncodeWrite(r.cfg, op.WriteID(), v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(pieces))

	// Round 1: read timestamps.
	resp, err := readRound(h, r.cfg)
	if err != nil {
		return err
	}
	maxNum := 0
	for obj := 0; obj < r.cfg.N(); obj++ {
		raw := resp[obj]
		if raw == nil {
			continue
		}
		rr := raw.(*readResp)
		if rr.CommittedTS.Num > maxNum {
			maxNum = rr.CommittedTS.Num
		}
		for _, c := range rr.Pieces {
			if c.TS.Num > maxNum {
				maxNum = c.TS.Num
			}
		}
	}
	ts := register.Timestamp{Num: maxNum + 1, Client: h.ID()}
	for i := range pieces {
		pieces[i].TS = ts
	}

	// Round 2: store one piece per object.
	stores := make([]storeRMW, len(pieces))
	if _, err := h.InvokeAll(func(obj int) dsys.RMW {
		s := &stores[obj]
		s.piece = pieces[obj]
		return s
	}, r.cfg.Quorum()); err != nil {
		return err
	}

	// Round 3: commit, enabling garbage collection of strictly older pieces.
	return commitRound(h, r.cfg, ts)
}

// readRound collects every object's pieces and committed timestamp and waits
// for n-f. The round's RMWs come from one array, and each answer rides in its
// RMW.
func readRound(h *dsys.ClientHandle, cfg register.Config) ([]any, error) {
	reads := make([]readRMW, cfg.N())
	return h.InvokeAll(func(obj int) dsys.RMW { return &reads[obj] }, cfg.Quorum())
}

// commitRound commits ts on every object and waits for n-f. The round's RMWs
// come from one array.
func commitRound(h *dsys.ClientHandle, cfg register.Config, ts register.Timestamp) error {
	commits := make([]commitRMW, cfg.N())
	_, err := h.InvokeAll(func(obj int) dsys.RMW {
		c := &commits[obj]
		c.ts = ts
		return c
	}, cfg.Quorum())
	return err
}

// WriteSeed implements register.SeedWriter: store and commit rounds at the
// fixed register.SeedTS, no read round. The store uses a dedup-guarded RMW —
// the ordinary store round appends unconditionally, which would double-charge
// storage when an interrupted seed is re-driven over its own partial first
// attempt.
func (r *Register) WriteSeed(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	pieces, enc, err := register.SeedChunks(r.cfg, op, v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(pieces))
	stores := make([]seedStoreRMW, len(pieces))
	if _, err := h.InvokeAll(func(obj int) dsys.RMW {
		s := &stores[obj]
		s.piece = pieces[obj]
		return s
	}, r.cfg.Quorum()); err != nil {
		return err
	}
	return commitRound(h, r.cfg, register.SeedTS)
}

// Read implements register.Register: retry read rounds until some value with
// a timestamp at least the highest observed committed timestamp has k
// distinct pieces, then decode it.
func (r *Register) Read(h *dsys.ClientHandle) (value.Value, error) {
	v, _, err := r.ReadTimestamped(h)
	return v, err
}

// ReadTimestamped implements register.TimestampedReader: the same read loop,
// additionally reporting the timestamp of the decoded value.
func (r *Register) ReadTimestamped(h *dsys.ClientHandle) (value.Value, register.Timestamp, error) {
	h.BeginOp(dsys.OpRead)
	defer h.EndOp()
	for attempt := 0; attempt < r.readRetryBudget; attempt++ {
		resp, err := readRound(h, r.cfg)
		if err != nil {
			return value.Value{}, register.ZeroTS, err
		}
		committed := register.ZeroTS
		var chunks []register.Chunk
		for obj := 0; obj < r.cfg.N(); obj++ {
			raw := resp[obj]
			if raw == nil {
				continue
			}
			rr := raw.(*readResp)
			committed = committed.Max(rr.CommittedTS)
			chunks = append(chunks, rr.Pieces...)
		}
		if best, ts, ok := register.BestDecodable(chunks, committed, r.cfg.K); ok {
			v, err := register.DecodeChunks(r.cfg, best)
			return v, ts, err
		}
	}
	return value.Value{}, register.ZeroTS, register.ErrReadStarved
}

// objectState stores one piece per not-yet-reclaimed write plus the highest
// committed timestamp.
type objectState struct {
	index       int
	committedTS register.Timestamp
	pieces      []register.Chunk
}

var _ dsys.State = (*objectState)(nil)

// Blocks implements dsys.State.
func (s *objectState) Blocks() []dsys.BlockRef { return register.ChunkRefs(s.pieces) }

// CommittedTS exposes the committed timestamp for tests.
func (s *objectState) CommittedTS() register.Timestamp { return s.committedTS }

// readResp is the read-round response.
type readResp struct {
	CommittedTS register.Timestamp
	Pieces      []register.Chunk
}

// readRMW returns the object's pieces and committed timestamp. Its answer
// rides in it: Apply fills resp and returns a pointer to it.
type readRMW struct {
	resp readResp
}

var _ dsys.RMW = (*readRMW)(nil)

// Apply implements dsys.RMW. The response copies the chunk headers (later
// Applies compact the piece list in place) and shares the immutable blocks.
// The headers go into the answer's own list where it has room for them — an
// RMW a server decodes over the last one of its kind keeps that list's
// capacity — and into one of exactly their size where it has not.
func (r *readRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	r.resp = readResp{CommittedTS: s.committedTS, Pieces: register.AnswerChunks(r.resp.Pieces, s.pieces)}
	return &r.resp
}

// Blocks implements dsys.RMW.
func (*readRMW) Blocks() []dsys.BlockRef { return nil }

// storeRMW appends the write's piece and prunes pieces older than the
// object's committed timestamp. A decoded store borrows its request frame
// (borrowed), and Apply copies the piece only when it stores it.
type storeRMW struct {
	piece    register.Chunk
	borrowed bool
}

var _ dsys.RMW = (*storeRMW)(nil)

// Apply implements dsys.RMW.
func (u *storeRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	if u.piece.TS.Less(s.committedTS) {
		// A newer write already committed; this piece is already obsolete.
		return false
	}
	kept := s.pieces[:0]
	for _, c := range s.pieces {
		if !c.TS.Less(s.committedTS) {
			kept = append(kept, c)
		}
	}
	s.pieces = append(kept, register.Retain(u.piece, u.borrowed))
	return true
}

// Blocks implements dsys.RMW.
func (u *storeRMW) Blocks() []dsys.BlockRef { return []dsys.BlockRef{u.piece.Ref()} }

// seedStoreRMW is storeRMW for reconfiguration seed writes: identical, except
// that a piece with the seed's exact timestamp already present is left alone,
// so a re-driven seed never duplicates the first attempt's pieces.
type seedStoreRMW struct {
	piece    register.Chunk
	borrowed bool
}

var _ dsys.RMW = (*seedStoreRMW)(nil)

// Apply implements dsys.RMW.
func (u *seedStoreRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	for _, c := range s.pieces {
		if c.TS == u.piece.TS && c.Block.Index == u.piece.Block.Index {
			return false
		}
	}
	return (&storeRMW{piece: u.piece, borrowed: u.borrowed}).Apply(state)
}

// Blocks implements dsys.RMW.
func (u *seedStoreRMW) Blocks() []dsys.BlockRef { return []dsys.BlockRef{u.piece.Ref()} }

// commitRMW raises the committed timestamp and reclaims strictly older pieces.
type commitRMW struct {
	ts register.Timestamp
}

var _ dsys.RMW = (*commitRMW)(nil)

// Apply implements dsys.RMW.
func (cmt *commitRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	s.committedTS = s.committedTS.Max(cmt.ts)
	kept := s.pieces[:0]
	for _, c := range s.pieces {
		if !c.TS.Less(s.committedTS) {
			kept = append(kept, c)
		}
	}
	s.pieces = kept
	return true
}

// Blocks implements dsys.RMW.
func (*commitRMW) Blocks() []dsys.BlockRef { return nil }
