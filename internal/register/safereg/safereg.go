// Package safereg implements the simple storage-efficient algorithm of
// Appendix E: a wait-free, strongly safe (but not regular) MWMR register
// built from a k-of-n erasure code with a worst-case storage cost of exactly
// n·D/k = (2f/k + 1)·D bits. At k = 1 the same algorithm is the replication
// baseline [4] (Attiya, Bar-Noy, Dolev), provider "abd": a regular register
// over n = 2f + 1 full replicas, the O(f·D) end of the trade-off the paper
// studies.
//
// Each base object stores exactly one timestamped piece. A write reads
// timestamps from n−f objects, picks a higher one, and overwrites an object's
// piece only if it carries a higher timestamp; a read collects n−f pieces,
// decodes the highest timestamp with k of them, and otherwise returns v0,
// which safe semantics permits because in that case a write is concurrent
// with the read. Its existence shows that the Ω(min(f, c)·D) lower bound is
// specific to regular registers (it does not hold for safe ones).
//
// At k = 1 any single piece decodes, so the read never falls back to v0: it
// returns the highest-timestamped replica among n−f answers, ABD's read
// without write-back. Two sets of f+1 of the 2f+1 replicas intersect, so a
// read meets every write that completed before it, and the register is
// regular.
//
// The two providers share every round, the write and the read; they differ
// only at the edges. Their RMWs and states are distinct types, one per wire
// family (abd.*, safe.*), so that the codec registries, which key by type,
// keep the kinds nodes, journals and snapshots already carry. A safe.state
// entry keeps the object's index, which no code reads, because its snapshot
// format carries it; abd.state is the replica alone.
package safereg

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// family is a wire family: abd marks the replication register's RMWs and
// states, safe the safe register's.
type family interface{ abd | safe }

type (
	abd  struct{}
	safe struct{}
)

// Register is the register emulation of Appendix E in wire family F.
type Register[F family] struct {
	cfg  register.Config
	name string
	v0   value.Value
}

var _ register.Register = (*Register[safe])(nil)

// New builds a safe register for the given configuration.
func New(cfg register.Config) (*Register[safe], error) {
	v, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Register[safe]{cfg: v, name: fmt.Sprintf("safe(f=%d,k=%d)", v.F, v.K)}, nil
}

// NewABD builds the ABD register tolerating cfg.F failures over 2f+1
// replicas. The configuration's K must be 1 (replication); 0 means 1.
func NewABD(cfg register.Config) (*Register[abd], error) {
	if cfg.K == 0 {
		cfg.K = 1
	}
	if cfg.K != 1 {
		return nil, fmt.Errorf("%w: abd requires k = 1, got %d", register.ErrConfig, cfg.K)
	}
	v, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Register[abd]{cfg: v, name: fmt.Sprintf("abd(f=%d)", v.F)}, nil
}

// Name implements register.Register.
func (r *Register[F]) Name() string { return r.name }

// Config implements register.Register.
func (r *Register[F]) Config() register.Config { return r.cfg }

// InitialStates implements register.Register: object i holds the i-th piece
// of v0 with the zero timestamp (Algorithm 4's initialization).
func (r *Register[F]) InitialStates(v0 value.Value) ([]dsys.State, error) {
	chunks, err := register.InitialChunks(r.cfg, v0)
	if err != nil {
		return nil, err
	}
	r.v0 = v0
	states := make([]dsys.State, r.cfg.N())
	for i := range states {
		states[i] = &objectState[F]{index: i, chunk: chunks[i]}
	}
	return states, nil
}

// Write implements register.Register (Algorithm 5, lines 1-9).
func (r *Register[F]) Write(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	pieces, err := register.WriteChunks(h, r.cfg, op.WriteID(), v)
	if err != nil {
		return err
	}
	var refs [32]dsys.BlockRef
	h.SetLocalBlocks(held(refs[:0], r.cfg, pieces))

	// Round 1: read timestamps.
	resp, err := readRound[F](h, r.cfg)
	if err != nil {
		return err
	}
	maxNum := 0
	for obj := 0; obj < r.cfg.N(); obj++ {
		if raw := resp[obj]; raw != nil {
			if c := raw.(*register.Chunk); c.TS.Num > maxNum {
				maxNum = c.TS.Num
			}
		}
	}
	ts := register.Timestamp{Num: maxNum + 1, Client: h.ID()}
	for i := range pieces {
		pieces[i].TS = ts
	}

	// Round 2: conditional update on every object, wait for n-f.
	return updateRound[F](h, r.cfg, pieces)
}

// held appends to dst what a writer keeps of its value while the write runs:
// at k = 1 every piece is the whole value, so one replica; otherwise every
// piece.
func held(dst []dsys.BlockRef, cfg register.Config, pieces []register.Chunk) []dsys.BlockRef {
	if cfg.K == 1 {
		pieces = pieces[:1]
	}
	return register.AppendChunkRefs(dst, pieces)
}

// Keys of the memory a handle lends each round of an operation
// (dsys.RoundMemory).
const (
	readKey = register.RoundKeys + iota
	updateKey
)

// readRound asks every object for its piece and waits for n-f. The round's
// RMWs come from one array, and each answer rides in its RMW.
func readRound[F family](h *dsys.ClientHandle, cfg register.Config) ([]any, error) {
	reads := dsys.RoundMemory[readRMW[F]](h, readKey, cfg.N())
	return h.InvokeAll(func(obj int) dsys.RMW { return &reads[obj] }, cfg.Quorum())
}

// updateRound sends every object its piece and waits for n-f. The round's
// RMWs come from one array.
func updateRound[F family](h *dsys.ClientHandle, cfg register.Config, pieces []register.Chunk) error {
	updates := dsys.RoundMemory[updateRMW[F]](h, updateKey, len(pieces))
	_, err := h.InvokeAll(func(obj int) dsys.RMW {
		u := &updates[obj]
		u.chunk = pieces[obj]
		return u
	}, cfg.Quorum())
	return err
}

// WriteSeed implements register.Register: the conditional-update round
// alone, at the fixed register.SeedTS. The update RMW only overwrites
// strictly older timestamps, so replaying an interrupted seed is idempotent.
func (r *Register[F]) WriteSeed(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	pieces, err := register.SeedChunks(h, r.cfg, op, v)
	if err != nil {
		return err
	}
	var refs [32]dsys.BlockRef
	h.SetLocalBlocks(held(refs[:0], r.cfg, pieces))
	return updateRound[F](h, r.cfg, pieces)
}

// Read implements register.Register (Algorithm 5, lines 13-19). It is
// wait-free: a single round suffices, and if no value is reconstructible the
// initial value v0 is returned, which safe semantics permits because that can
// only happen when a write is concurrent with the read.
func (r *Register[F]) Read(h *dsys.ClientHandle) (value.Value, error) {
	v, _, err := r.ReadTimestamped(h)
	return v, err
}

// ReadTimestamped implements register.Register: the same collect-
// and-decode read, additionally reporting the timestamp of the decoded value
// (the zero timestamp when the read falls back to v0).
func (r *Register[F]) ReadTimestamped(h *dsys.ClientHandle) (value.Value, register.Timestamp, error) {
	h.BeginOp(dsys.OpRead)
	defer h.EndOp()
	resp, err := readRound[F](h, r.cfg)
	if err != nil {
		return value.Value{}, register.ZeroTS, err
	}
	// The read set is on the stack while it holds at most 16 chunks.
	var onStack [16]register.Chunk
	chunks := onStack[:0]
	for obj := 0; obj < r.cfg.N(); obj++ {
		if raw := resp[obj]; raw != nil {
			chunks = append(chunks, *raw.(*register.Chunk))
		}
	}
	if v, ts, ok, err := register.DecodeBest(h, r.cfg, chunks, register.ZeroTS); ok {
		return v, ts, err
	}
	return r.v0, register.ZeroTS, nil
}

// objectState holds exactly one timestamped piece.
type objectState[F family] struct {
	index int
	chunk register.Chunk
}

// AppendBlocks implements dsys.State.
func (s *objectState[F]) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef {
	return append(dst, s.chunk.Ref())
}

// readRMW returns the object's piece. Its answer rides in it: Apply fills resp and
// returns a pointer to it, so an object that answers allocates no answer.
type readRMW[F family] struct {
	resp register.Chunk
}

// Apply implements dsys.RMW. The response shares the stored block, which is
// immutable once produced.
func (r *readRMW[F]) Apply(state dsys.State) any {
	r.resp = state.(*objectState[F]).chunk
	return &r.resp
}

// AppendBlocks implements dsys.RMW.
func (*readRMW[F]) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

// updateRMW overwrites the object's piece if the new timestamp is larger
// (Algorithm 5, lines 10-12). A decoded update borrows its request frame
// (borrowed), and Apply copies the piece only when it stores it.
type updateRMW[F family] struct {
	chunk    register.Chunk
	borrowed bool
}

// Apply implements dsys.RMW.
func (u *updateRMW[F]) Apply(state dsys.State) any {
	s := state.(*objectState[F])
	if s.chunk.TS.Less(u.chunk.TS) {
		s.chunk = register.Retain(u.chunk, u.borrowed)
		return true
	}
	return false
}

// AppendBlocks implements dsys.RMW.
func (u *updateRMW[F]) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef {
	return append(dst, u.chunk.Ref())
}
