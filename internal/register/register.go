// Package register defines the shared vocabulary of the register emulations:
// lexicographic timestamps, timestamped code-block chunks, the emulation
// configuration n = 2f + k, and the Register interface implemented by the
// adaptive algorithm (Section 5), the safe register (Appendix E), and the
// ABD and pure-erasure-coded baselines.
package register

import (
	"errors"
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/value"
)

// Timestamp is the pair ⟨num, client⟩ ordered lexicographically
// (Algorithm 1, line 1). The zero timestamp tags the initial value v0.
type Timestamp struct {
	Num    int
	Client int
}

// ZeroTS is the timestamp of the initial value v0.
var ZeroTS = Timestamp{}

// Less reports whether t orders strictly before other.
func (t Timestamp) Less(other Timestamp) bool {
	if t.Num != other.Num {
		return t.Num < other.Num
	}
	return t.Client < other.Client
}

// LessEq reports whether t orders before or equals other.
func (t Timestamp) LessEq(other Timestamp) bool { return t == other || t.Less(other) }

// Max returns the larger of t and other.
func (t Timestamp) Max(other Timestamp) Timestamp {
	if t.Less(other) {
		return other
	}
	return t
}

// String implements fmt.Stringer.
func (t Timestamp) String() string { return fmt.Sprintf("ts(%d,%d)", t.Num, t.Client) }

// MaxTimestamp returns the largest timestamp in the slice, or ZeroTS if the
// slice is empty.
func MaxTimestamp(ts []Timestamp) Timestamp {
	max := ZeroTS
	for _, t := range ts {
		max = max.Max(t)
	}
	return max
}

// Chunk is a timestamped code block together with the source tag that traces
// it back to the write that produced it (Algorithm 1, line 3: Chunks =
// Pieces x TimeStamps; the source tag realizes Definition 4's source
// function and is treated as meta-data, so it is not charged to storage).
type Chunk struct {
	TS     Timestamp
	Block  erasure.Block
	Source oracle.SourceTag
}

// Ref converts the chunk into the runtime's storage-accounting reference.
func (c Chunk) Ref() dsys.BlockRef {
	return dsys.BlockRef{Source: c.Source, Bits: c.Block.SizeBits()}
}

// Retain returns c as a base object stores it. borrowed says that the RMW
// carrying c was decoded from a frame and c's block is a view of that frame:
// the block is then copied into exactly sized memory of its own. Any other
// chunk's block already is such memory (EncodeWrite's retained) and is kept as
// it stands. An Apply calls it on the line that stores a chunk its RMW
// carries, and nowhere earlier.
func Retain(c Chunk, borrowed bool) Chunk {
	if borrowed {
		c.Block = c.Block.Clone()
	}
	return c
}

// CloneChunks deep-copies a chunk slice into exactly sized blocks of their own:
// what an Apply does before it retains chunks it was handed only to read.
func CloneChunks(chunks []Chunk) []Chunk {
	out := make([]Chunk, len(chunks))
	for i, c := range chunks {
		out[i] = Chunk{TS: c.TS, Block: c.Block.Clone(), Source: c.Source}
	}
	return out
}

// ChunkRefs converts chunks to storage-accounting references.
func ChunkRefs(chunks []Chunk) []dsys.BlockRef {
	out := make([]dsys.BlockRef, len(chunks))
	for i, c := range chunks {
		out[i] = c.Ref()
	}
	return out
}

// Config describes a register emulation instance. The paper's resilience
// relation is n = 2f + k: any two quorums of n-f base objects intersect in
// at least k objects, which is what lets a reader find k pieces of a
// completely written value.
type Config struct {
	// F is the number of base-object crash failures tolerated.
	F int
	// K is the erasure-code decode threshold; K = 1 yields full replication.
	K int
	// DataLen is the value size in bytes (D = 8*DataLen bits).
	DataLen int
	// Code is the coding scheme; it must be a K-of-N() symmetric code. If nil,
	// constructors build a Reed-Solomon code (or replication when K == 1).
	Code erasure.Code
}

// Errors shared by register implementations.
var (
	// ErrConfig indicates an invalid configuration.
	ErrConfig = errors.New("register: invalid configuration")
	// ErrReadStarved is returned when a read exhausts its retry budget
	// because new values keep being written concurrently; FW-termination
	// only promises read completion once writes stop.
	ErrReadStarved = errors.New("register: read exhausted its retry budget (writes still in progress)")
)

// N returns the number of base objects, 2F + K.
func (c Config) N() int { return 2*c.F + c.K }

// Quorum returns the quorum size n - f every round waits for.
func (c Config) Quorum() int { return c.N() - c.F }

// DataBits returns D in bits.
func (c Config) DataBits() int { return 8 * c.DataLen }

// Validate checks the configuration and fills in a default code if none is
// set. It returns the normalized configuration.
func (c Config) Validate() (Config, error) {
	if c.F < 0 {
		return c, fmt.Errorf("%w: f = %d must be non-negative", ErrConfig, c.F)
	}
	if c.K < 1 {
		return c, fmt.Errorf("%w: k = %d must be at least 1", ErrConfig, c.K)
	}
	if c.DataLen < 1 {
		return c, fmt.Errorf("%w: data length %d must be positive", ErrConfig, c.DataLen)
	}
	if c.N() > 255 {
		return c, fmt.Errorf("%w: n = %d exceeds the GF(2^8) code limit of 255", ErrConfig, c.N())
	}
	if c.Code == nil {
		var err error
		if c.K == 1 {
			c.Code, err = erasure.NewReplication(c.N())
		} else {
			c.Code, err = erasure.NewReedSolomon(c.K, c.N())
		}
		if err != nil {
			return c, fmt.Errorf("%w: building default code: %v", ErrConfig, err)
		}
	}
	if c.Code.K() != c.K || c.Code.N() < c.N() {
		return c, fmt.Errorf("%w: code %s does not match k=%d n=%d", ErrConfig, c.Code.Name(), c.K, c.N())
	}
	if err := erasure.CheckSymmetry(c.Code, c.DataLen); err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return c, nil
}

// TimestampedReader is implemented by register emulations whose read can also
// report the internal timestamp of the value it returns. The zero timestamp
// means the register has never been written (the read returned v0).
//
// Reconfiguration depends on this: while a shard migrates, a read consults
// both epochs and the new epoch's value wins exactly when its register has a
// nonzero timestamp — lexicographic (epoch, timestamp) order — so the router
// needs the timestamp, not just the value. All built-in emulations implement
// it; a shard whose register does not cannot be migrated live.
type TimestampedReader interface {
	ReadTimestamped(h *dsys.ClientHandle) (value.Value, Timestamp, error)
}

// SeedTS is the fixed timestamp of reconfiguration seed writes. It is
// strictly above ZeroTS (so a dual-epoch read recognizes a seeded successor)
// and its client component is below every real client ID, so the first
// client write on a seeded register — whose read phase must intersect the
// seed's write quorum — always picks a strictly larger timestamp.
//
// Fixing the timestamp is what makes seeding idempotent: every WriteSeed of
// the same value onto a fresh register installs the identical
// ⟨timestamp, value⟩ pair, so a crash-interrupted migration can simply be
// re-driven — stale RMWs of an earlier seed attempt that land arbitrarily
// late are byte-identical no-ops and can never supersede a later client
// write, which a read-phase-chosen timestamp could (an interrupted seed's
// partially applied high timestamp may be missed by the retry's read quorum).
var SeedTS = Timestamp{Num: 1, Client: -1}

// SeedWriter is implemented by register emulations that support the
// reconfiguration migration writer's idempotent seed write: a write of v at
// the fixed SeedTS, with no read phase. It must only be used against a fresh
// (never client-written) register whose writes are held — the seed has to be
// the register's first write — which is exactly the state a migration
// successor is in between the routing-table flip and its activation. All
// built-in emulations implement it.
type SeedWriter interface {
	WriteSeed(h *dsys.ClientHandle, v value.Value) error
}

// SeedChunks is the shared front half of every WriteSeed implementation: it
// validates v against the configuration, encodes it for the caller's current
// write operation, and stamps every chunk with the fixed SeedTS. The caller
// owns the operation (BeginOp/EndOp) and must Expire the returned encoder;
// only the protocol-specific RMW rounds remain per emulation. retained is
// EncodeWrite's.
func SeedChunks(cfg Config, op dsys.OpID, v value.Value, retained bool) ([]Chunk, *oracle.Encoder, error) {
	if v.SizeBytes() != cfg.DataLen {
		return nil, nil, fmt.Errorf("%w: value has %d bytes, config says %d", ErrConfig, v.SizeBytes(), cfg.DataLen)
	}
	chunks, enc, err := EncodeWrite(cfg, op.WriteID(), v, retained)
	if err != nil {
		return nil, nil, err
	}
	for i := range chunks {
		chunks[i].TS = SeedTS
	}
	return chunks, enc, nil
}

// Register is a multi-writer multi-reader register emulation bound to a
// configuration. Implementations are stateless facades: all mutable state
// lives in the base objects of the cluster the operations run against.
type Register interface {
	// Name identifies the algorithm, e.g. "adaptive(f=2,k=2)".
	Name() string
	// Config returns the emulation's configuration.
	Config() Config
	// InitialStates returns fresh base-object states holding the initial
	// value v0, suitable for dsys.NewCluster.
	InitialStates(v0 value.Value) ([]dsys.State, error)
	// Write performs a high-level write of v using the given client handle.
	Write(h *dsys.ClientHandle, v value.Value) error
	// Read performs a high-level read using the given client handle.
	Read(h *dsys.ClientHandle) (value.Value, error)
}

// EncodeWrite runs the write-side oracle for value v: it takes the n blocks
// from it in one call, tags them, and returns them as timestamp-free chunks in
// block-index order (index i+1 is destined for base object i).
//
// retained says that the base objects will keep the very blocks the RMWs
// carry, as they do behind an in-process handle (dsys.ClientHandle.InProcess):
// every block is then exactly sized memory of its own. Otherwise the blocks
// only travel — a node across a wire decodes them as views of the frame and
// copies only the one its object stores, where it stores it (Retain) — and a
// code's data blocks may be views of v.
func EncodeWrite(cfg Config, w oracle.WriteID, v value.Value, retained bool) ([]Chunk, *oracle.Encoder, error) {
	enc := oracle.NewEncoder(cfg.Code, w, v)
	blocks, err := enc.GetAll()
	if err != nil {
		return nil, nil, fmt.Errorf("register: encoding: %w", err)
	}
	chunks := make([]Chunk, cfg.N())
	for i := range chunks {
		b := blocks[i]
		if retained {
			b = b.Detach(v.View())
		}
		chunks[i] = Chunk{Block: b, Source: enc.Source(i + 1)}
	}
	return chunks, enc, nil
}

// InitialChunks encodes the initial value v0 and returns its chunks tagged
// with the zero timestamp and the InitialWrite source.
func InitialChunks(cfg Config, v0 value.Value) ([]Chunk, error) {
	if v0.SizeBytes() != cfg.DataLen {
		return nil, fmt.Errorf("%w: initial value has %d bytes, config says %d", ErrConfig, v0.SizeBytes(), cfg.DataLen)
	}
	chunks, _, err := EncodeWrite(cfg, oracle.InitialWrite, v0, true)
	if err != nil {
		return nil, err
	}
	for i := range chunks {
		chunks[i].TS = ZeroTS
	}
	return chunks, nil
}

// DecodeChunks attempts to decode a value from chunks that all carry the same
// timestamp, using the read-side oracle. It returns erasure.ErrNotEnoughBlocks
// if fewer than k distinct block indices are present.
func DecodeChunks(cfg Config, chunks []Chunk) (value.Value, error) {
	dec := oracle.NewDecoder(cfg.Code, cfg.DataLen, len(chunks))
	for _, c := range chunks {
		if err := dec.Push(c.Block); err != nil {
			return value.Value{}, err
		}
	}
	return dec.Done()
}

// BestDecodable groups chunks by timestamp and returns the chunks of the
// largest timestamp that is at least minTS and has at least k distinct block
// indices, in the order they arrived, along with that timestamp. The boolean
// result reports whether such a timestamp exists. It is the selection rule of
// the adaptive read (Algorithm 2, lines 18-21) and of the baseline readers.
//
// A read set is a few chunks per object, so the groups are found by scanning
// it, once per timestamp that could still win, and all that is allocated is
// the result. An index no code of at most 255 blocks produces is not counted.
func BestDecodable(chunks []Chunk, minTS Timestamp, k int) ([]Chunk, Timestamp, bool) {
	best, size := ZeroTS, 0 // size is how many chunks carry best; 0 until a timestamp qualifies
	for _, c := range chunks {
		if c.TS.Less(minTS) || size > 0 && c.TS.LessEq(best) {
			continue
		}
		var seen [256]bool
		distinct, count := 0, 0
		for _, d := range chunks {
			if d.TS != c.TS {
				continue
			}
			count++
			if i := d.Block.Index; i >= 0 && i < len(seen) && !seen[i] {
				seen[i] = true
				distinct++
			}
		}
		if distinct >= k {
			best, size = c.TS, count
		}
	}
	if size == 0 {
		return nil, ZeroTS, false
	}
	group := make([]Chunk, 0, size)
	for _, c := range chunks {
		if c.TS == best {
			group = append(group, c)
		}
	}
	return group, best, true
}
