// Package abd implements the replication baseline [4] (Attiya, Bar-Noy,
// Dolev): a multi-writer multi-reader regular register over n = 2f + 1 full
// replicas. It is the O(f·D) end of the storage trade-off the paper studies:
// its storage cost is (2f+1)·D bits regardless of the concurrency level,
// because every base object stores one full copy of a single value that a
// reader can always use on its own.
//
// The implementation is the paper's adaptive algorithm specialized to k = 1
// conceptually, but written directly: a write reads timestamps from a
// majority, picks a higher one, and stores ⟨v, ts⟩ on a majority; a read
// collects a majority and returns the value with the highest timestamp.
// Without reader write-back the register is (strongly) regular, which is the
// consistency level the paper's bounds are stated for.
package abd

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// Register is the ABD replication register.
type Register struct {
	cfg register.Config
}

var (
	_ register.Register   = (*Register)(nil)
	_ register.SeedWriter = (*Register)(nil)
)

// New builds an ABD register tolerating cfg.F failures over 2f+1 replicas.
// The configuration's K must be 1 (replication); Code defaults to the
// replication code.
func New(cfg register.Config) (*Register, error) {
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
	return &Register{cfg: v}, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return fmt.Sprintf("abd(f=%d)", r.cfg.F) }

// Config implements register.Register.
func (r *Register) Config() register.Config { return r.cfg }

// InitialStates implements register.Register: every replica holds v0.
func (r *Register) InitialStates(v0 value.Value) ([]dsys.State, error) {
	chunks, err := register.InitialChunks(r.cfg, v0)
	if err != nil {
		return nil, err
	}
	states := make([]dsys.State, r.cfg.N())
	for i := range states {
		states[i] = &objectState{chunk: chunks[i]}
	}
	return states, nil
}

// Write implements register.Register.
func (r *Register) Write(h *dsys.ClientHandle, v value.Value) error {
	if v.SizeBytes() != r.cfg.DataLen {
		return fmt.Errorf("%w: value has %d bytes, config says %d", register.ErrConfig, v.SizeBytes(), r.cfg.DataLen)
	}
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	replicas, enc, err := register.EncodeWrite(r.cfg, op.WriteID(), v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(replicas[:1]))

	// Phase 1: query a majority for the highest timestamp.
	resp, err := readRound(h, r.cfg)
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
	for i := range replicas {
		replicas[i].TS = ts
	}

	// Phase 2: store the full replica on a majority.
	return updateRound(h, r.cfg, replicas)
}

// readRound asks every object for its replica and waits for a majority. The
// round's RMWs come from one array, and each answer rides in its RMW.
func readRound(h *dsys.ClientHandle, cfg register.Config) ([]any, error) {
	reads := make([]readRMW, cfg.N())
	return h.InvokeAll(func(obj int) dsys.RMW { return &reads[obj] }, cfg.Quorum())
}

// updateRound sends every object its replica and waits for a majority. The
// round's RMWs come from one array.
func updateRound(h *dsys.ClientHandle, cfg register.Config, replicas []register.Chunk) error {
	updates := make([]updateRMW, len(replicas))
	_, err := h.InvokeAll(func(obj int) dsys.RMW {
		u := &updates[obj]
		u.chunk = replicas[obj]
		return u
	}, cfg.Quorum())
	return err
}

// WriteSeed implements register.SeedWriter: the write phase alone, at the
// fixed register.SeedTS. The update RMW only overwrites strictly older
// timestamps, so re-driving an interrupted seed is a no-op on every replica
// the first attempt already reached.
func (r *Register) WriteSeed(h *dsys.ClientHandle, v value.Value) error {
	op := h.BeginOp(dsys.OpWrite)
	defer h.EndOp()
	replicas, enc, err := register.SeedChunks(r.cfg, op, v, h.InProcess())
	if err != nil {
		return err
	}
	defer enc.Expire()
	h.SetLocalBlocks(register.ChunkRefs(replicas[:1]))
	return updateRound(h, r.cfg, replicas)
}

// Read implements register.Register.
func (r *Register) Read(h *dsys.ClientHandle) (value.Value, error) {
	v, _, err := r.ReadTimestamped(h)
	return v, err
}

// ReadTimestamped implements register.TimestampedReader: the same majority
// read, additionally reporting the timestamp of the returned replica.
func (r *Register) ReadTimestamped(h *dsys.ClientHandle) (value.Value, register.Timestamp, error) {
	h.BeginOp(dsys.OpRead)
	defer h.EndOp()
	resp, err := readRound(h, r.cfg)
	if err != nil {
		return value.Value{}, register.ZeroTS, err
	}
	best := register.Chunk{}
	found := false
	for obj := 0; obj < r.cfg.N(); obj++ {
		raw := resp[obj]
		if raw == nil {
			continue
		}
		c := raw.(*register.Chunk)
		if !found || best.TS.Less(c.TS) {
			best, found = *c, true
		}
	}
	if !found {
		return value.Value{}, register.ZeroTS, fmt.Errorf("abd: read received no responses")
	}
	v, err := register.DecodeChunks(r.cfg, []register.Chunk{best})
	return v, best.TS, err
}

// objectState holds one timestamped full replica.
type objectState struct {
	chunk register.Chunk
}

var _ dsys.State = (*objectState)(nil)

// Blocks implements dsys.State.
func (s *objectState) Blocks() []dsys.BlockRef { return []dsys.BlockRef{s.chunk.Ref()} }

// Chunk exposes the stored replica for tests.
func (s *objectState) Chunk() register.Chunk { return s.chunk }

// readRMW returns the replica. Its answer rides in it: Apply fills resp and
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

// updateRMW overwrites the replica if the new timestamp is higher. A decoded
// update borrows its request frame (borrowed), and Apply copies the replica
// only when it stores it.
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
