package erasure

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"spacebounds/internal/gf256"
)

// ReedSolomon is a systematic k-of-n erasure code over GF(2^8). Its n-by-k
// generator is a Vandermonde matrix multiplied by the inverse of its own top
// k rows, so the top of the generator is the identity: blocks 1..k are the
// value's k shards as they stand and only blocks k+1..n are computed, each a
// GF(2^8)-linear combination of the shards. Any k rows of the generator are
// still invertible, so any k distinct blocks determine the value, which is
// exactly the decode function D of Section 3.
//
// Decoding a value whose data blocks are not all there inverts the generator
// rows of the blocks used. The code keeps each such inverse, keyed by the set
// of rows, the first time it is needed (see inverse).
type ReedSolomon struct {
	k, n   int
	matrix *gf256.Matrix

	// inverses maps a set of k generator rows to the inverse of their
	// submatrix. The map is copy-on-write: a stored map and its matrices are
	// never written again, so a lookup takes no lock and writes no shared
	// memory. grow serializes the writers.
	inverses atomic.Pointer[map[rowSet]*gf256.Matrix]
	grow     sync.Mutex
}

// maxInverses bounds the inverse cache. A code has one set of rows per
// erasure pattern that loses a data block, C(n, k) - 1 at most; past the bound
// a decode inverts without storing.
const maxInverses = 256

// rowSet is a set of generator rows, one bit per row (n <= 255).
type rowSet [4]uint64

var _ Code = (*ReedSolomon)(nil)

// NewReedSolomon constructs a k-of-n Reed-Solomon code. It returns an error
// if the parameters are out of range (1 <= k <= n <= 255).
func NewReedSolomon(k, n int) (*ReedSolomon, error) {
	if k < 1 || n < k || n > 255 {
		return nil, fmt.Errorf("erasure: invalid Reed-Solomon parameters k=%d n=%d", k, n)
	}
	return &ReedSolomon{k: k, n: n, matrix: gf256.SystematicVandermonde(n, k)}, nil
}

// MustReedSolomon is NewReedSolomon for statically known parameters; it
// panics on invalid input and is intended for tests and examples.
func MustReedSolomon(k, n int) *ReedSolomon {
	rs, err := NewReedSolomon(k, n)
	if err != nil {
		panic(err)
	}
	return rs
}

// Name implements Code.
func (rs *ReedSolomon) Name() string { return fmt.Sprintf("rs(%d,%d)", rs.k, rs.n) }

// K implements Code.
func (rs *ReedSolomon) K() int { return rs.k }

// N implements Code.
func (rs *ReedSolomon) N() int { return rs.n }

// BlockSizeBytes implements Code: every block is one shard of ceil(D/k) bytes.
func (rs *ReedSolomon) BlockSizeBytes(dataLen, index int) int {
	return shardLen(dataLen, rs.k)
}

// ownedShard returns shard c (0-based) of data in memory of its own: exactly
// sl bytes, zero-padded where the shard runs past the end of data. The make
// and the copy stay adjacent: the compiler fuses the pair into one
// allocate-and-copy that clears only the padding.
func ownedShard(data []byte, c, sl int) []byte {
	var src []byte
	if start := c * sl; start < len(data) {
		src = data[start:]
	}
	out := make([]byte, sl)
	copy(out, src)
	return out
}

// shard returns shard c of data for reading only: a view of data where the
// shard lies wholly inside it, a padded copy for the tail of a value whose
// length k does not divide.
func shard(data []byte, c, sl int) []byte {
	if start := c * sl; start+sl <= len(data) {
		return data[start : start+sl]
	}
	return ownedShard(data, c, sl)
}

// shardViews appends the k shards of data, for reading only (see shard), to
// dst and returns the result: a dst on the caller's stack with room for them
// spares the list its allocation.
func shardViews(dst [][]byte, data []byte, k, sl int) [][]byte {
	for c := 0; c < k; c++ {
		dst = append(dst, shard(data, c, sl))
	}
	return dst
}

// Encode implements Code. The value is not copied: a data block is a view of
// its shard of data (the padded tail shard of a value k does not divide is a
// copy), and the n-k parity blocks are computed from the shards into memory of
// their own. Whoever keeps a data block longer than the value, as a base
// object does, takes its copy (Block.Detach); a view is left with the capacity
// it has inside the value, so that one retained by mistake shows as memory
// that is not exactly sized. The list is new; EncodeTo lists the blocks in
// the caller's.
func (rs *ReedSolomon) Encode(data []byte) ([]Block, error) {
	return rs.EncodeTo(make([]Block, 0, rs.n), data)
}

// EncodeTo is Encode into a list the caller lends: it appends blocks 1..n to
// dst and returns the result, so a dst on the caller's stack with room for n
// blocks spares the list its allocation, and the n-k parity blocks are all
// the encode allocates (but for a tail shard k does not divide). The blocks
// are Encode's.
func (rs *ReedSolomon) EncodeTo(dst []Block, data []byte) ([]Block, error) {
	sl := shardLen(len(data), rs.k)
	var onStack [16][]byte
	shards := shardViews(onStack[:0], data, rs.k, sl)
	for c, s := range shards {
		dst = append(dst, Block{Index: c + 1, Data: s})
	}
	for i := rs.k; i < rs.n; i++ {
		parity := make([]byte, sl)
		gf256.DotSlices(rs.matrix.Row(i), parity, shards)
		dst = append(dst, Block{Index: i + 1, Data: parity})
	}
	return dst, nil
}

// EncodeBlock implements Code: a data block is a copy of its shard, a parity
// block one dot product over views of the value.
func (rs *ReedSolomon) EncodeBlock(data []byte, index int) (Block, error) {
	if index < 1 || index > rs.n {
		return Block{}, fmt.Errorf("%w: %d not in [1,%d]", ErrBlockIndex, index, rs.n)
	}
	sl := shardLen(len(data), rs.k)
	if index <= rs.k {
		return Block{Index: index, Data: ownedShard(data, index-1, sl)}, nil
	}
	out := make([]byte, sl)
	gf256.DotSlices(rs.matrix.Row(index-1), out, shardViews(nil, data, rs.k, sl))
	return Block{Index: index, Data: out}, nil
}

// Decode implements Code. Every supplied block is validated; data blocks are
// preferred and copied straight into the output, and only shards whose data
// block is absent are reconstructed, each as one dot product over the k
// blocks used, with coefficients from the inverse of the generator rows of
// those blocks.
func (rs *ReedSolomon) Decode(dataLen int, blocks []Block) ([]byte, error) {
	sl := shardLen(dataLen, rs.k)
	var at [256]int // at[i]-1 is the position in blocks of the first block with index i
	distinct := 0
	for p, b := range blocks {
		if b.Index < 1 || b.Index > rs.n {
			return nil, fmt.Errorf("%w: %d not in [1,%d]", ErrBlockIndex, b.Index, rs.n)
		}
		if len(b.Data) != sl {
			return nil, fmt.Errorf("%w: block %d has %d bytes, want %d", ErrBlockSize, b.Index, len(b.Data), sl)
		}
		if at[b.Index] == 0 {
			at[b.Index] = p + 1
			distinct++
		}
	}
	if distinct < rs.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughBlocks, distinct, rs.k)
	}
	out := make([]byte, rs.k*sl)
	data := 0 // data blocks present
	for i := 1; i <= rs.k; i++ {
		if at[i] != 0 {
			copy(out[(i-1)*sl:i*sl], blocks[at[i]-1].Data)
			data++
		}
	}
	if data == rs.k {
		return out[:dataLen:dataLen], nil
	}
	// Only a missing data block needs the generator rows of the k blocks
	// used: every data block there is, then parity blocks. The rows and the
	// blocks are listed on the stack for k up to 16, as Encode's shards are.
	var rowsOnStack [16]int
	var usedOnStack [16][]byte
	rows, used := rowsOnStack[:0], usedOnStack[:0]
	for i := 1; len(rows) < rs.k; i++ {
		if at[i] != 0 {
			rows = append(rows, i-1)
			used = append(used, blocks[at[i]-1].Data)
		}
	}
	inv, err := rs.inverse(rows)
	if err != nil {
		return nil, fmt.Errorf("erasure: rs decode: %w", err)
	}
	for c := 0; c < rs.k; c++ {
		if at[c+1] == 0 {
			gf256.DotSlices(inv.Row(c), out[c*sl:(c+1)*sl], used)
		}
	}
	return out[:dataLen:dataLen], nil
}

// inverse returns the inverse of the generator's submatrix of rows (ascending),
// from the cache when an earlier decode stored it. A miss inverts and, while
// the cache holds fewer than maxInverses, stores the result in a copy of the
// map. The returned matrix is shared: it is only ever read.
func (rs *ReedSolomon) inverse(rows []int) (*gf256.Matrix, error) {
	var key rowSet
	for _, r := range rows {
		key[r/64] |= 1 << (r % 64)
	}
	if m := rs.inverses.Load(); m != nil {
		if inv, ok := (*m)[key]; ok {
			return inv, nil
		}
	}
	inv, err := rs.matrix.SubMatrix(rows).Invert()
	if err != nil {
		return nil, err
	}
	rs.grow.Lock()
	defer rs.grow.Unlock()
	var cached map[rowSet]*gf256.Matrix
	if m := rs.inverses.Load(); m != nil {
		cached = *m
	}
	if prior, ok := cached[key]; ok {
		return prior, nil // a concurrent decode stored it first
	}
	if len(cached) >= maxInverses {
		return inv, nil
	}
	next := make(map[rowSet]*gf256.Matrix, len(cached)+1)
	maps.Copy(next, cached)
	next[key] = inv
	rs.inverses.Store(&next)
	return inv, nil
}
