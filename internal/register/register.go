// Package register defines the shared vocabulary of the register emulations:
// lexicographic timestamps, timestamped code-block chunks, the emulation
// configuration n = 2f + k, and the Register interface implemented by the
// adaptive algorithm (Section 5), the safe register (Appendix E), and the
// ABD and pure-erasure-coded baselines.
package register

import (
	"errors"
	"fmt"
	"slices"

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

// AnswerChunks returns the chunk headers of lists, one after the other, as a
// read's answer holds them: in dst's array when it has room for them — a
// server's read RMW keeps the capacity of its last answer — and otherwise in
// one of exactly their size. The blocks are shared: they are immutable once
// produced.
func AnswerChunks(dst []Chunk, lists ...[]Chunk) []Chunk {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if cap(dst) < n {
		dst = make([]Chunk, 0, n)
	}
	dst = dst[:0]
	for _, l := range lists {
		dst = append(dst, l...)
	}
	return dst
}

// AppendChunkRefs appends the chunks' storage-accounting references to dst: a
// writer lists what it holds (dsys.ClientHandle.SetLocalBlocks) on its stack,
// and a base object's state what it stores (dsys.State) in the cluster's walk
// buffer.
func AppendChunkRefs(dst []dsys.BlockRef, chunks []Chunk) []dsys.BlockRef {
	for _, c := range chunks {
		dst = append(dst, c.Ref())
	}
	return dst
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
	// constructors build the K-of-N() Reed-Solomon code, whose K = 1 instance
	// is replication: every block is the value.
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
		if c.Code, err = erasure.NewReedSolomon(c.K, c.N()); err != nil {
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

// SeedChunks is the shared front half of every WriteSeed implementation: it
// encodes v for the caller's current write operation (WriteChunks, which
// checks v's size) and stamps every chunk with the fixed SeedTS. The caller
// owns the operation (BeginOp/EndOp); only the protocol-specific RMW rounds
// remain per emulation.
func SeedChunks(h *dsys.ClientHandle, cfg Config, op dsys.OpID, v value.Value) ([]Chunk, error) {
	chunks, err := WriteChunks(h, cfg, op.WriteID(), v)
	if err != nil {
		return nil, err
	}
	for i := range chunks {
		chunks[i].TS = SeedTS
	}
	return chunks, nil
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
	// It keeps no view of a borrowed v past its return (EncodeWrite).
	Write(h *dsys.ClientHandle, v value.Value) error
	// Read performs a high-level read using the given client handle. The
	// value it returns is the caller's own: no other holder shares its bytes.
	Read(h *dsys.ClientHandle) (value.Value, error)
	// ReadTimestamped is Read that also reports the internal timestamp of
	// the value it returns; ZeroTS means the register has never been written
	// (the read returned v0). Reconfiguration needs it: while a shard
	// migrates, a read consults both epochs and the new epoch's value wins
	// exactly when its register has a nonzero timestamp — lexicographic
	// (epoch, timestamp) order — and a merge orders its sources' values the
	// same way.
	ReadTimestamped(h *dsys.ClientHandle) (value.Value, Timestamp, error)
	// WriteSeed is the reconfiguration migration writer's idempotent seed
	// write: a write of v at the fixed SeedTS, with no read phase. It must
	// only be used against a fresh (never client-written) register whose
	// writes are held — the seed has to be the register's first write —
	// which is exactly the state a migration successor is in between the
	// routing-table flip and its activation.
	WriteSeed(h *dsys.ClientHandle, v value.Value) error
}

// Keys of the memory a client handle lends an operation (dsys.RoundMemory,
// dsys.OpMemory): a write's chunk list and a read's decoder list are this
// package's, and a provider numbers its rounds from RoundKeys on.
const (
	ChunksKey dsys.MemoryKey = iota
	DecoderKey
	RoundKeys
)

// WriteChunks is EncodeWrite for the write h runs: its list of chunks is round
// memory h lends (dsys.RoundMemory, the handle's own in process) and the
// blocks are retained as h.InProcess() says.
func WriteChunks(h *dsys.ClientHandle, cfg Config, w oracle.WriteID, v value.Value) ([]Chunk, error) {
	return EncodeWrite(dsys.RoundMemory[Chunk](h, ChunksKey, cfg.N()), cfg, w, v, h.InProcess())
}

// EncodeWrite runs the write-side oracle for value v: it takes the n blocks
// from it in one call, into a list on its stack while n is at most 16, tags
// them, and returns them as timestamp-free chunks in block-index order (index
// i+1 is destined for base object i), in dst when it has room for n of them and
// in a new list otherwise. The oracle lives for the span of the call, in its
// frame: the chunks are all a write keeps of it. A value whose size is not
// cfg.DataLen is refused with ErrConfig: every write, seed write and initial
// value is checked here.
//
// retained says that the base objects will keep the very blocks the RMWs
// carry, as they do behind a live handle (dsys.ClientHandle.InProcess): every
// block is then exactly sized memory of its own. Otherwise the blocks only
// travel — an object across a wire, or behind a controlled cluster's, decodes
// them as views of the bytes it was sent and copies only the one it stores,
// where it stores it (Retain) — and a code's data blocks may be views of v.
// A borrowed v (value.Borrow) is detached as a retained one is, on every
// engine: a frame still queued for a slow object may read its blocks after
// the write returns and the caller has written its bytes again.
func EncodeWrite(dst []Chunk, cfg Config, w oracle.WriteID, v value.Value, retained bool) ([]Chunk, error) {
	if v.SizeBytes() != cfg.DataLen {
		return nil, fmt.Errorf("%w: value has %d bytes, config says %d", ErrConfig, v.SizeBytes(), cfg.DataLen)
	}
	enc := oracle.NewEncoder(cfg.Code, w, v)
	defer enc.Expire()
	var onStack [16]erasure.Block
	blocks, err := enc.GetAll(onStack[:0])
	if err != nil {
		return nil, fmt.Errorf("register: encoding: %w", err)
	}
	detach := retained || v.Borrowed()
	chunks := slices.Grow(dst[:0], cfg.N())[:cfg.N()]
	for i := range chunks {
		b := blocks[i]
		if detach {
			b = b.Detach(v.View())
		}
		chunks[i] = Chunk{Block: b, Source: enc.Source(i + 1)}
	}
	return chunks, nil
}

// InitialChunks encodes the initial value v0 and returns its chunks tagged
// with the zero timestamp and the InitialWrite source.
func InitialChunks(cfg Config, v0 value.Value) ([]Chunk, error) {
	chunks, err := EncodeWrite(nil, cfg, oracle.InitialWrite, v0, true)
	if err != nil {
		return nil, err
	}
	for i := range chunks {
		chunks[i].TS = ZeroTS
	}
	return chunks, nil
}

// DecodeBest finds the largest timestamp that is at least minTS and whose
// chunks carry at least cfg.K distinct block indices, and decodes that
// timestamp's value with the read-side oracle. It is the selection rule of
// the adaptive read (Algorithm 2, lines 18-21) and of the baseline readers.
// ok reports whether such a timestamp exists; only then are v and ts set, and
// err is the decode's.
//
// A read set is a few chunks per object, so the groups are found by scanning
// it, once per timestamp that could still win, and the winner's chunks go to
// the oracle straight from the read set, in the order they arrived. The
// oracle's list is memory h keeps for the read's decoder (dsys.OpMemory, on
// every engine: it reaches no round), cleared once the value is decoded, so
// all that is allocated is the value; a nil h lends none, and the list is
// new. An index no code of at most 255 blocks produces is not counted.
func DecodeBest(h *dsys.ClientHandle, cfg Config, chunks []Chunk, minTS Timestamp) (v value.Value, ts Timestamp, ok bool, err error) {
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
		if distinct >= cfg.K {
			best, size = c.TS, count
		}
	}
	if size == 0 {
		return value.Value{}, ZeroTS, false, nil
	}
	list := dsys.OpMemory[erasure.Block](h, DecoderKey, size)
	defer clear(list)
	dec := oracle.NewDecoder(cfg.Code, cfg.DataLen, list)
	for _, c := range chunks {
		if c.TS != best {
			continue
		}
		if err := dec.Push(c.Block); err != nil {
			return value.Value{}, best, true, err
		}
	}
	v, err = dec.Done()
	return v, best, true, err
}
