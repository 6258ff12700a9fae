// Package oracle implements the encoding/decoding oracle model of Section 3
// of the paper (Definition 1, Figure 1).
//
// A write(v) operation at client c initializes an encoding oracle
// oracleE(c, w); the oracle exposes get(i), which returns the code block
// E(v, i). A read operation initializes a decoding oracle oracleD(c, r); the
// reader pushes blocks it has obtained and calls done to decode. Oracles are
// the only source of code blocks in the system: the source function
// (Definition 4) maps every stored block instance back to the ⟨write, index⟩
// pair it was encoded for, which is what both the storage accountant and the
// lower-bound adversary use to attribute storage to operations.
//
// An oracle belongs to the operation that initialized it and is called from
// that operation's goroutine alone, so it takes no lock.
//
// Oracle-internal state (the value held by an encoder, the blocks accumulated
// by a decoder) is explicitly NOT part of the storage cost (Definition 2).
package oracle

import (
	"errors"
	"fmt"

	"spacebounds/internal/erasure"
	"spacebounds/internal/value"
)

// WriteID identifies a high-level write operation: the client performing it
// and the client-local sequence number of the operation. The zero WriteID
// identifies the implicit write of the initial value v0.
type WriteID struct {
	Client int
	Seq    int
}

// InitialWrite is the distinguished WriteID of the implicit operation that
// wrote the initial value v0 at time zero.
var InitialWrite = WriteID{Client: -1, Seq: 0}

// String renders the WriteID for traces.
func (w WriteID) String() string {
	if w == InitialWrite {
		return "w0"
	}
	return fmt.Sprintf("w(c%d#%d)", w.Client, w.Seq)
}

// SourceTag identifies the origin of a block instance: the write whose oracle
// encoded it and the block number i passed to get(i). It realizes the
// source function of Definition 4.
type SourceTag struct {
	Write WriteID
	Index int
}

// String renders the SourceTag for traces.
func (s SourceTag) String() string { return fmt.Sprintf("%v[%d]", s.Write, s.Index) }

// ErrExpired is returned when an oracle is used after its operation returned.
var ErrExpired = errors.New("oracle: oracle has expired")

// Encoder is oracleE(c, w): it produces code blocks of a single value on
// demand. The value is encoded once, on the first Get or GetAll, and indices
// 1..N are served from that result; the blocks handed out are immutable and a
// repeated get(i) returns the same bytes. It is owned by its operation's
// goroutine, which is the only one that calls it.
type Encoder struct {
	code  erasure.Code
	write WriteID

	val     value.Value
	blocks  []erasure.Block // E(v, 1..N), nil until the first Get or GetAll
	expired bool
}

// NewEncoder initializes oracleE for the given write operation and value.
func NewEncoder(code erasure.Code, w WriteID, v value.Value) *Encoder {
	return &Encoder{code: code, write: w, val: v}
}

// Write returns the identity of the write operation this oracle serves.
func (e *Encoder) Write() WriteID { return e.write }

// Get returns E(v, i) tagged with its source. It fails if the oracle expired,
// and with erasure.ErrBlockIndex for an index outside 1..N.
func (e *Encoder) Get(i int) (erasure.Block, SourceTag, error) {
	if e.expired {
		return erasure.Block{}, SourceTag{}, ErrExpired
	}
	if i < 1 || i > e.code.N() {
		return erasure.Block{}, SourceTag{}, fmt.Errorf("oracle: get(%d): %w", i, erasure.ErrBlockIndex)
	}
	blocks, err := e.encoded()
	if err != nil {
		return erasure.Block{}, SourceTag{}, fmt.Errorf("oracle: get(%d): %w", i, err)
	}
	return blocks[i-1], e.Source(i), nil
}

// GetAll is get(1..N) in one call: element i-1 of the result is E(v, i), whose
// source is Source(i). The slice is the oracle's own, read-only like the
// blocks in it, and outlives Expire.
func (e *Encoder) GetAll() ([]erasure.Block, error) {
	if e.expired {
		return nil, ErrExpired
	}
	blocks, err := e.encoded()
	if err != nil {
		return nil, fmt.Errorf("oracle: get(1..%d): %w", e.code.N(), err)
	}
	return blocks, nil
}

// Source returns the source tag of E(v, i): what Get(i) returns beside it.
func (e *Encoder) Source(i int) SourceTag { return SourceTag{Write: e.write, Index: i} }

// encoded returns E(v, 1..N), encoding v on the first call. The oracle has not
// expired.
func (e *Encoder) encoded() ([]erasure.Block, error) {
	if e.blocks == nil {
		blocks, err := e.code.Encode(e.val.View())
		if err != nil {
			return nil, err
		}
		e.blocks = blocks
	}
	return e.blocks, nil
}

// Expire marks the oracle expired and drops the encoded blocks; it is called
// when the write returns.
func (e *Encoder) Expire() {
	e.expired = true
	e.blocks = nil
}

// Decoder is oracleD(c, r): the reader pushes blocks and calls Done to
// obtain the decoded value. It is owned by its operation's goroutine, which is
// the only one that calls it.
type Decoder struct {
	code    erasure.Code
	dataLen int

	pushed  []erasure.Block
	expired bool
}

// NewDecoder initializes oracleD for a read operation over values of
// dataLen bytes. The blocks pushed to it are kept in list, from its start: the
// caller lends it for the oracle's life and sizes it for the blocks it means
// to push, so Push allocates nothing.
func NewDecoder(code erasure.Code, dataLen int, list []erasure.Block) *Decoder {
	return &Decoder{code: code, dataLen: dataLen, pushed: list[:0]}
}

// Push hands a block to the oracle (the push(e, i) action of Definition 1).
// The block is kept by reference until Done: block bytes are immutable once
// encoded, so the oracle reads them and never copies.
func (d *Decoder) Push(b erasure.Block) error {
	if d.expired {
		return ErrExpired
	}
	d.pushed = append(d.pushed, b)
	return nil
}

// Done attempts to decode from the pushed blocks (the done(i) action of
// Definition 1) and expires the oracle. It returns erasure.ErrNotEnoughBlocks
// (the model's ⊥) if the pushed blocks do not determine a value.
func (d *Decoder) Done() (value.Value, error) {
	if d.expired {
		return value.Value{}, ErrExpired
	}
	d.expired = true
	data, err := d.code.Decode(d.dataLen, d.pushed)
	if err != nil {
		return value.Value{}, err
	}
	return value.Adopt(data), nil
}
