// Package safereg implements the simple storage-efficient algorithm of
// Appendix E: a wait-free, strongly safe (but not regular) MWMR register
// built from a k-of-n erasure code with a worst-case storage cost of exactly
// n·D/k = (2f/k + 1)·D bits.
//
// Each base object stores exactly one timestamped piece. A write overwrites
// an object's piece only if it carries a higher timestamp; a read that finds
// k pieces of a single value decodes it and otherwise returns v0, which safe
// semantics permits because in that case a write is concurrent with the read.
// Its existence shows that the Ω(min(f, c)·D) lower bound is specific to
// regular registers (it does not hold for safe ones).
package safereg

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// Register is the safe register emulation of Appendix E.
type Register struct {
	cfg register.Config
	v0  value.Value
}

var (
	_ register.Register   = (*Register)(nil)
	_ register.SeedWriter = (*Register)(nil)
)

// New builds a safe register for the given configuration.
func New(cfg register.Config) (*Register, error) {
	v, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Register{cfg: v}, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return fmt.Sprintf("safe(f=%d,k=%d)", r.cfg.F, r.cfg.K) }

// Config implements register.Register.
func (r *Register) Config() register.Config { return r.cfg }

// InitialStates implements register.Register: object i holds the i-th piece
// of v0 with the zero timestamp (Algorithm 4's initialization).
func (r *Register) InitialStates(v0 value.Value) ([]dsys.State, error) {
	chunks, err := register.InitialChunks(r.cfg, v0)
	if err != nil {
		return nil, err
	}
	r.v0 = v0
	states := make([]dsys.State, r.cfg.N())
	for i := range states {
		states[i] = &objectState{index: i, chunk: chunks[i]}
	}
	return states, nil
}

// Write implements register.Register (Algorithm 5, lines 1-9).
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
		if c := raw.(*register.Chunk); c.TS.Num > maxNum {
			maxNum = c.TS.Num
		}
	}
	ts := register.Timestamp{Num: maxNum + 1, Client: h.ID()}
	for i := range pieces {
		pieces[i].TS = ts
	}

	// Round 2: conditional update on every object, wait for n-f.
	return updateRound(h, r.cfg, pieces)
}

// readRound asks every object for its piece and waits for n-f. The round's
// RMWs come from one array, and each answer rides in its RMW.
func readRound(h *dsys.ClientHandle, cfg register.Config) ([]any, error) {
	reads := make([]readRMW, cfg.N())
	return h.InvokeAll(func(obj int) dsys.RMW { return &reads[obj] }, cfg.Quorum())
}

// updateRound sends every object its piece and waits for n-f. The round's
// RMWs come from one array.
func updateRound(h *dsys.ClientHandle, cfg register.Config, pieces []register.Chunk) error {
	updates := make([]updateRMW, len(pieces))
	_, err := h.InvokeAll(func(obj int) dsys.RMW {
		u := &updates[obj]
		u.chunk = pieces[obj]
		return u
	}, cfg.Quorum())
	return err
}

// WriteSeed implements register.SeedWriter: the conditional-update round
// alone, at the fixed register.SeedTS. The update RMW only overwrites
// strictly older timestamps, so replaying an interrupted seed is idempotent.
func (r *Register) WriteSeed(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	pieces, enc, err := register.SeedChunks(r.cfg, op, v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(pieces))
	return updateRound(h, r.cfg, pieces)
}

// Read implements register.Register (Algorithm 5, lines 13-19). It is
// wait-free: a single round suffices, and if no value is reconstructible the
// initial value v0 is returned, which safe semantics permits because that can
// only happen when a write is concurrent with the read.
func (r *Register) Read(h *dsys.ClientHandle) (value.Value, error) {
	v, _, err := r.ReadTimestamped(h)
	return v, err
}

// ReadTimestamped implements register.TimestampedReader: the same collect-
// and-decode read, additionally reporting the timestamp of the decoded value
// (the zero timestamp when the read falls back to v0).
func (r *Register) ReadTimestamped(h *dsys.ClientHandle) (value.Value, register.Timestamp, error) {
	h.BeginOp(dsys.OpRead)
	defer h.EndOp()
	resp, err := readRound(h, r.cfg)
	if err != nil {
		return value.Value{}, register.ZeroTS, err
	}
	var chunks []register.Chunk
	for obj := 0; obj < r.cfg.N(); obj++ {
		if raw := resp[obj]; raw != nil {
			chunks = append(chunks, *raw.(*register.Chunk))
		}
	}
	if best, ts, ok := register.BestDecodable(chunks, register.ZeroTS, r.cfg.K); ok {
		v, err := register.DecodeChunks(r.cfg, best)
		return v, ts, err
	}
	return r.v0, register.ZeroTS, nil
}

// objectState holds exactly one timestamped piece.
type objectState struct {
	index int
	chunk register.Chunk
}

var _ dsys.State = (*objectState)(nil)

// Blocks implements dsys.State.
func (s *objectState) Blocks() []dsys.BlockRef { return []dsys.BlockRef{s.chunk.Ref()} }

// Chunk exposes the stored piece for tests.
func (s *objectState) Chunk() register.Chunk { return s.chunk }

// readRMW returns the object's piece. Its answer rides in it: Apply fills resp and
// returns a pointer to it, so an object that answers allocates no answer.
type readRMW struct {
	resp register.Chunk
}

var _ dsys.RMW = (*readRMW)(nil)

// Apply implements dsys.RMW. The response shares the stored block, which is
// immutable once produced.
func (r *readRMW) Apply(state dsys.State) any {
	r.resp = state.(*objectState).chunk
	return &r.resp
}

// Blocks implements dsys.RMW.
func (*readRMW) Blocks() []dsys.BlockRef { return nil }

// updateRMW overwrites the object's piece if the new timestamp is larger
// (Algorithm 5, lines 10-12). A decoded update borrows its request frame
// (borrowed), and Apply copies the piece only when it stores it.
type updateRMW struct {
	chunk    register.Chunk
	borrowed bool
}

var _ dsys.RMW = (*updateRMW)(nil)

// Apply implements dsys.RMW.
func (u *updateRMW) Apply(state dsys.State) any {
	s := state.(*objectState)
	if s.chunk.TS.Less(u.chunk.TS) {
		s.chunk = register.Retain(u.chunk, u.borrowed)
		return true
	}
	return false
}

// Blocks implements dsys.RMW.
func (u *updateRMW) Blocks() []dsys.BlockRef { return []dsys.BlockRef{u.chunk.Ref()} }
