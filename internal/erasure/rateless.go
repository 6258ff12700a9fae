package erasure

import (
	"fmt"

	"spacebounds/internal/gf256"
)

// Rateless is a linear code over GF(2^8) that can generate a block for any
// index in N, capturing the paper's remark that the oracle model covers
// rateless codes [13]. Block i is a linear combination of the k data shards
// with a coefficient vector derived deterministically from i (a Vandermonde
// row), so the same (value, index) pair always yields the same block — as
// required of the encoding function E : V x N -> E. Each block carries its
// coefficient vector, so decoding is self-describing: gather blocks until k
// of them have linearly independent coefficients and solve the system. Any k
// blocks whose indices are distinct modulo 255 are guaranteed decodable.
type Rateless struct {
	k, n int
	seed int64
}

var _ Code = (*Rateless)(nil)

// NewRateless constructs a rateless code with decode threshold k and nominal
// width n (the number of blocks Encode emits; EncodeBlock accepts any index).
func NewRateless(k, n int, seed int64) (*Rateless, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("erasure: invalid rateless parameters k=%d n=%d", k, n)
	}
	return &Rateless{k: k, n: n, seed: seed}, nil
}

// MustRateless is NewRateless for statically known parameters; it panics on
// invalid input.
func MustRateless(k, n int, seed int64) *Rateless {
	c, err := NewRateless(k, n, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Code.
func (rl *Rateless) Name() string { return fmt.Sprintf("rateless(%d,%d)", rl.k, rl.n) }

// K implements Code.
func (rl *Rateless) K() int { return rl.k }

// N implements Code.
func (rl *Rateless) N() int { return rl.n }

// BlockSizeBytes implements Code. Each block carries its coefficient vector
// (k bytes) followed by the combined shard, so the size depends only on the
// index and the domain size — the code remains symmetric.
func (rl *Rateless) BlockSizeBytes(dataLen, index int) int {
	return rl.k + shardLen(dataLen, rl.k)
}

// coefficients returns the deterministic coefficient vector for a block
// index: the Vandermonde row evaluated at alpha = g^((index-1) mod 255),
// where g is the field generator. Any k blocks whose indices are distinct
// modulo 255 therefore have an invertible coefficient matrix; the optional
// seed perturbs the evaluation point so independently-seeded encoders emit
// different (but still mutually decodable within one encoder) block streams.
func (rl *Rateless) coefficients(index int) []byte {
	coeffs := make([]byte, rl.k)
	point := (uint64(index-1) + uint64(rl.seed&0x7fffffff)) % 255
	alpha := gf256.PowGenerator(int(point))
	for j := range coeffs {
		coeffs[j] = gf256.Exp(alpha, j)
	}
	return coeffs
}

// Encode implements Code.
func (rl *Rateless) Encode(data []byte) ([]Block, error) {
	blocks := make([]Block, rl.n)
	for i := 1; i <= rl.n; i++ {
		b, err := rl.EncodeBlock(data, i)
		if err != nil {
			return nil, err
		}
		blocks[i-1] = b
	}
	return blocks, nil
}

// EncodeBlock implements Code and accepts any positive index, which is what
// makes the code rateless. The block is its coefficient vector followed by
// one dot product over views of the value, computed in place.
func (rl *Rateless) EncodeBlock(data []byte, index int) (Block, error) {
	if index < 1 {
		return Block{}, fmt.Errorf("%w: %d must be positive", ErrBlockIndex, index)
	}
	sl := shardLen(len(data), rl.k)
	coeffs := rl.coefficients(index)
	out := make([]byte, rl.k+sl)
	copy(out, coeffs)
	gf256.DotSlices(coeffs, out[rl.k:], shardViews(data, rl.k, sl))
	return Block{Index: index, Data: out}, nil
}

// Decode implements Code.
func (rl *Rateless) Decode(dataLen int, blocks []Block) ([]byte, error) {
	distinct := DistinctBlocks(blocks)
	if len(distinct) < rl.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughBlocks, len(distinct), rl.k)
	}
	sl := shardLen(dataLen, rl.k)
	wantLen := rl.k + sl
	// Greedily build an invertible k-by-k coefficient matrix by Gaussian
	// elimination over the candidate rows.
	chosenRows := make([][]byte, 0, rl.k)
	chosenPayloads := make([][]byte, 0, rl.k)
	basis := make([][]byte, 0, rl.k) // reduced copies used for the independence test
	for _, b := range distinct {
		if len(b.Data) != wantLen {
			return nil, fmt.Errorf("%w: block %d has %d bytes, want %d", ErrBlockSize, b.Index, len(b.Data), wantLen)
		}
		coeffs := append([]byte(nil), b.Data[:rl.k]...)
		reduced := append([]byte(nil), coeffs...)
		for _, row := range basis {
			pivot := leadingIndex(row)
			if pivot >= 0 && reduced[pivot] != 0 {
				gf256.MulAddSlice(gf256.Div(reduced[pivot], row[pivot]), reduced, row)
			}
		}
		if leadingIndex(reduced) < 0 {
			continue // linearly dependent on rows already chosen
		}
		basis = append(basis, reduced)
		chosenRows = append(chosenRows, coeffs)
		chosenPayloads = append(chosenPayloads, b.Data[rl.k:])
		if len(chosenRows) == rl.k {
			break
		}
	}
	if len(chosenRows) < rl.k {
		return nil, fmt.Errorf("%w: only %d linearly independent blocks of %d required", ErrNotEnoughBlocks, len(chosenRows), rl.k)
	}
	m, err := gf256.NewMatrixFromRows(chosenRows)
	if err != nil {
		return nil, fmt.Errorf("erasure: rateless decode: %w", err)
	}
	inv, err := m.Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: rateless decode: %w", err)
	}
	shards, err := inv.MulVec(chosenPayloads)
	if err != nil {
		return nil, fmt.Errorf("erasure: rateless decode: %w", err)
	}
	return joinShards(shards, dataLen), nil
}

// leadingIndex returns the index of the first non-zero byte, or -1 if all
// bytes are zero.
func leadingIndex(row []byte) int {
	for i, v := range row {
		if v != 0 {
			return i
		}
	}
	return -1
}
