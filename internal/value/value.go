// Package value defines the register value domain V of the paper.
//
// A register stores values of a fixed size D = 8 * len(bytes) bits. The
// package provides constructors, equality, deterministic distinct values
// for workloads and tests, and bit-size accounting that the
// storage-cost model (Definition 2 in the paper) relies on.
package value

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Value is an element of the register domain V: an immutable byte string of a
// fixed length agreed upon by all clients of a register instance.
type Value struct {
	data []byte
}

// Zero returns the initial register value v0: all-zero bytes of the given
// size. The paper's v0 is an arbitrary distinguished element of V; all-zeros
// is a convenient canonical choice.
func Zero(sizeBytes int) Value {
	return Value{data: make([]byte, sizeBytes)}
}

// FromBytes builds a Value from the given bytes. The slice is copied so the
// Value is immutable from the caller's perspective.
func FromBytes(b []byte) Value {
	d := make([]byte, len(b))
	copy(d, b)
	return Value{data: d}
}

// Adopt builds a Value that takes ownership of b without copying. The caller
// must not read or write b afterwards; a decoder handing over the buffer it
// just filled is the intended use.
func Adopt(b []byte) Value { return Value{data: b} }

// FromString builds a Value from a string, padded with zero bytes to
// sizeBytes. It panics if the string is longer than sizeBytes; register
// domains are fixed-size, so callers must size their values up front.
func FromString(s string, sizeBytes int) Value {
	if len(s) > sizeBytes {
		panic(fmt.Sprintf("value: string of length %d exceeds domain size %d", len(s), sizeBytes))
	}
	d := make([]byte, sizeBytes)
	copy(d, s)
	return Value{data: d}
}

// Sequenced returns a deterministic value of the given size derived from a
// (writer, sequence) pair. Distinct pairs yield distinct values with
// overwhelming probability, which experiments use to tell concurrent writes
// apart without coordinating value choice.
func Sequenced(writer, seq int, sizeBytes int) Value {
	var seed [16]byte
	binary.BigEndian.PutUint64(seed[0:8], uint64(writer))
	binary.BigEndian.PutUint64(seed[8:16], uint64(seq))
	d := make([]byte, sizeBytes)
	var counter uint64
	for off := 0; off < sizeBytes; off += sha256.Size {
		var block [24]byte
		copy(block[:16], seed[:])
		binary.BigEndian.PutUint64(block[16:], counter)
		sum := sha256.Sum256(block[:])
		copy(d[off:], sum[:])
		counter++
	}
	return Value{data: d}
}

// Bytes returns a copy of the value's bytes.
func (v Value) Bytes() []byte {
	d := make([]byte, len(v.data))
	copy(d, v.data)
	return d
}

// View returns the value's bytes without copying. The result is read-only:
// writing through it would change a Value other holders treat as immutable.
func (v Value) View() []byte { return v.data }

// SizeBytes returns the length of the value in bytes.
func (v Value) SizeBytes() int { return len(v.data) }

// SizeBits returns D, the length of the value in bits.
func (v Value) SizeBits() int { return 8 * len(v.data) }

// IsZero reports whether every byte of the value is zero (i.e. the value is
// the canonical v0 of its domain).
func (v Value) IsZero() bool {
	for _, b := range v.data {
		if b != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two values are byte-wise identical.
func (v Value) Equal(other Value) bool { return bytes.Equal(v.data, other.data) }

// String renders a short fingerprint of the value for logs and traces.
func (v Value) String() string {
	if len(v.data) == 0 {
		return "v(empty)"
	}
	sum := sha256.Sum256(v.data)
	return fmt.Sprintf("v(%dB:%s)", len(v.data), hex.EncodeToString(sum[:4]))
}

// Fingerprint returns a stable 64-bit digest of the value, used by history
// checkers to compare returned and written values cheaply.
func (v Value) Fingerprint() uint64 {
	sum := sha256.Sum256(v.data)
	return binary.BigEndian.Uint64(sum[:8])
}
