// Package erasure implements the symmetric black-box coding scheme of the
// paper (Section 3): the systematic k-of-n Reed-Solomon code every register
// emulation builds. Replication is its k = 1 instance, in which every block
// is the value.
//
// The code implements the Code interface and satisfies the paper's symmetric
// encoding assumption (Definition 3): the size of block i depends only on i
// and on the domain size D, never on the encoded value. The register
// emulations in internal/register treat codes strictly as black boxes — they
// store and move blocks but never inspect their contents — which is the
// setting in which the paper's lower bound applies.
package erasure

import (
	"errors"
	"fmt"
)

// Block is a single code block: the output of the encoding function
// E(v, Index). Index is 1-based, matching the paper's block numbering.
type Block struct {
	// Index is the block number i such that Data = E(v, i).
	Index int
	// Data is the block contents.
	Data []byte
}

// SizeBits returns the number of bits in the block, the quantity the storage
// cost model counts (Definition 2).
func (b Block) SizeBits() int { return 8 * len(b.Data) }

// Clone returns a deep copy of the block. The source is copied from a plain
// variable: only then does the compiler fuse the make and the copy into one
// allocation that is never zeroed.
func (b Block) Clone() Block {
	src := b.Data
	d := make([]byte, len(src))
	copy(d, src)
	return Block{Index: b.Index, Data: d}
}

// Detach returns b if its bytes are memory of its own, and an exactly sized
// copy of b if they are a view of data, the value b was encoded from: block i
// of a systematic code may be the i-th len(b.Data) bytes of data as they stand
// (Code.Encode). It is how a holder that outlives the value, or must not keep
// all of it alive for one block, takes ownership.
func (b Block) Detach(data []byte) Block {
	if off := (b.Index - 1) * len(b.Data); len(b.Data) > 0 && off >= 0 && off < len(data) && &b.Data[0] == &data[off] {
		return b.Clone()
	}
	return b
}

// Errors shared by the code implementations.
var (
	// ErrNotEnoughBlocks is returned by Decode when fewer than k distinct
	// blocks are supplied; it corresponds to the oracle returning ⊥.
	ErrNotEnoughBlocks = errors.New("erasure: not enough distinct blocks to decode")
	// ErrBlockIndex is returned when a block index is outside the code's range.
	ErrBlockIndex = errors.New("erasure: block index out of range")
	// ErrBlockSize is returned when a supplied block has an unexpected size.
	ErrBlockSize = errors.New("erasure: block has unexpected size")
)

// Code is a symmetric coding scheme over the value domain.
//
// K is the number of distinct blocks sufficient (and necessary) to decode;
// N is the number of distinct block indexes, 1..N, the scheme produces — one
// per base object in the register emulations.
type Code interface {
	// Name identifies the scheme, e.g. "rs(3,7)".
	Name() string
	// K returns the decode threshold.
	K() int
	// N returns the number of distinct blocks produced by Encode.
	N() int
	// BlockSizeBytes returns the size of block index for a value of dataLen
	// bytes. Symmetry (Definition 3) means the result is independent of the
	// value itself.
	BlockSizeBytes(dataLen, index int) int
	// Encode produces blocks 1..N for the given data. Blocks are never
	// written, so holders may share them. A systematic code's data blocks
	// may alias data — block i being its i-th block-sized run of bytes —
	// and every other block is memory of its own: whoever retains a block
	// past data's life, or is charged for it, owns a copy (Block.Detach).
	Encode(data []byte) ([]Block, error)
	// EncodeBlock produces the single block with the given index, 1..N, or
	// returns ErrBlockIndex; it is the oracle's get(i) operation
	// (Definition 1).
	EncodeBlock(data []byte, index int) (Block, error)
	// Decode reconstructs a dataLen-byte value from at least K distinct
	// blocks, or returns ErrNotEnoughBlocks (the oracle's ⊥). The blocks are
	// only read; the result is fresh memory the caller owns.
	Decode(dataLen int, blocks []Block) ([]byte, error)
}

// CheckSymmetry verifies Definition 3 empirically for a code: it encodes two
// different values of the same length and checks that every block index has
// the same size in both encodings. Register constructors call it once at
// setup so a non-conforming code is rejected early.
func CheckSymmetry(c Code, dataLen int) error {
	if dataLen <= 0 {
		return fmt.Errorf("erasure: CheckSymmetry requires positive data length, got %d", dataLen)
	}
	a := make([]byte, dataLen)
	b := make([]byte, dataLen)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	blocksA, err := c.Encode(a)
	if err != nil {
		return fmt.Errorf("erasure: CheckSymmetry encode: %w", err)
	}
	blocksB, err := c.Encode(b)
	if err != nil {
		return fmt.Errorf("erasure: CheckSymmetry encode: %w", err)
	}
	if len(blocksA) != len(blocksB) {
		return fmt.Errorf("erasure: code %s produced %d and %d blocks for equal-size values", c.Name(), len(blocksA), len(blocksB))
	}
	for i := range blocksA {
		if len(blocksA[i].Data) != len(blocksB[i].Data) {
			return fmt.Errorf("erasure: code %s block %d size depends on value (%d vs %d bytes)",
				c.Name(), blocksA[i].Index, len(blocksA[i].Data), len(blocksB[i].Data))
		}
		if sz := c.BlockSizeBytes(dataLen, blocksA[i].Index); sz != len(blocksA[i].Data) {
			return fmt.Errorf("erasure: code %s BlockSizeBytes(%d, %d) = %d but Encode produced %d bytes",
				c.Name(), dataLen, blocksA[i].Index, sz, len(blocksA[i].Data))
		}
	}
	return nil
}

// shardLen returns the per-shard length when splitting dataLen bytes into k
// equal shards, padding the tail shard with zeros.
func shardLen(dataLen, k int) int {
	return (dataLen + k - 1) / k
}
