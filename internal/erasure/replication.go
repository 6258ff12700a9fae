package erasure

import "fmt"

// Replication is the degenerate 1-of-n code in which every block is a full
// copy of the value. The paper's adaptive algorithm with k = 1 reduces to
// this scheme, and it is the coding scheme used by the ABD baseline.
type Replication struct {
	n int
}

var _ Code = (*Replication)(nil)

// NewReplication constructs a replication "code" producing n identical
// blocks. It returns an error if n < 1.
func NewReplication(n int) (*Replication, error) {
	if n < 1 {
		return nil, fmt.Errorf("erasure: invalid replication factor %d", n)
	}
	return &Replication{n: n}, nil
}

// MustReplication is NewReplication for statically known parameters; it
// panics on invalid input.
func MustReplication(n int) *Replication {
	r, err := NewReplication(n)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements Code.
func (r *Replication) Name() string { return fmt.Sprintf("repl(%d)", r.n) }

// K implements Code: a single block suffices to decode.
func (r *Replication) K() int { return 1 }

// N implements Code.
func (r *Replication) N() int { return r.n }

// BlockSizeBytes implements Code: every block is a full replica.
func (r *Replication) BlockSizeBytes(dataLen, index int) int { return dataLen }

// Encode implements Code.
func (r *Replication) Encode(data []byte) ([]Block, error) {
	blocks := make([]Block, r.n)
	for i := 0; i < r.n; i++ {
		d := make([]byte, len(data))
		copy(d, data)
		blocks[i] = Block{Index: i + 1, Data: d}
	}
	return blocks, nil
}

// EncodeBlock implements Code: every block is a full copy.
func (r *Replication) EncodeBlock(data []byte, index int) (Block, error) {
	if index < 1 || index > r.n {
		return Block{}, fmt.Errorf("%w: %d not in [1,%d]", ErrBlockIndex, index, r.n)
	}
	d := make([]byte, len(data))
	copy(d, data)
	return Block{Index: index, Data: d}, nil
}

// Decode implements Code: any single block is the value.
func (r *Replication) Decode(dataLen int, blocks []Block) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: have 0, need 1", ErrNotEnoughBlocks)
	}
	b := blocks[0]
	if len(b.Data) != dataLen {
		return nil, fmt.Errorf("%w: block %d has %d bytes, want %d", ErrBlockSize, b.Index, len(b.Data), dataLen)
	}
	out := make([]byte, dataLen)
	copy(out, b.Data)
	return out, nil
}
