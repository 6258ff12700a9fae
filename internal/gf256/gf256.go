// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed as GF(2)[x] modulo the irreducible polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the polynomial conventionally used by
// Reed-Solomon implementations. Addition is XOR; multiplication, division,
// inversion, and exponentiation are implemented with precomputed log and
// exponentiation tables keyed by the generator element 2.
//
// The slice kernels (MulSlice, MulAddSlice, DotSlices) have two forms that
// produce the same bytes. The portable one indexes one 256-byte row of a full
// multiplication table per coefficient, a byte at a time. The vector one
// (amd64 with AVX2, unless built with -tags purego) uses the split-table
// identity c*x = lo_c[x&15] ^ hi_c[x>>4]: multiplication by c is linear over
// GF(2), so the product splits over the two nibbles of x, each half is a
// 16-entry table, and one VPSHUFB looks up 32 bytes of it at once. The vector
// kernel takes the 32-byte-multiple prefix of any slice of at least 32 bytes;
// the portable loop takes the rest, and is the reference the tests compare
// against.
//
// The package is the arithmetic substrate for the erasure codes in
// internal/erasure. It is allocation-free and safe for concurrent use: the
// tables are computed once at package initialization and never mutated.
package gf256

import "fmt"

// Poly is the irreducible polynomial used to construct the field, expressed
// with the x^8 term included (bit 8 set).
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

// generator is a primitive element of the field; successive powers of the
// generator enumerate all non-zero field elements.
const generator = 2

var (
	expTable [2 * Order]byte // expTable[i] = generator^i, doubled to avoid mod in Mul
	logTable [Order]byte     // logTable[x] = i such that generator^i = x, for x != 0
	invTable [Order]byte     // invTable[x] = multiplicative inverse of x, invTable[0] = 0
	// mulTable[a][b] = a*b: the portable slice kernels index one 256-byte row
	// per coefficient, with no zero test and no log/exp double lookup per byte.
	mulTable [Order][Order]byte
	// nibbleTable[c] is what the vector kernel shuffles through: bytes 0..15
	// are c*x for the low nibbles x = 0..15, bytes 16..31 are c*(x<<4).
	nibbleTable [Order][32]byte
)

// vectorRun bounds the bytes one call of the assembly routine covers. The
// routine has no preemption point, so a stop-the-world waits for it to return:
// 64 KiB is a few microseconds.
const vectorRun = 64 << 10

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// Extend the exponent table so Mul can index logA+logB (< 510) directly.
	for i := Order - 1; i < 2*Order; i++ {
		expTable[i] = expTable[i-(Order-1)]
	}
	for i := 1; i < Order; i++ {
		invTable[i] = expTable[Order-1-int(logTable[i])]
	}
	for a := 1; a < Order; a++ {
		for b := 1; b < Order; b++ {
			mulTable[a][b] = expTable[int(logTable[a])+int(logTable[b])]
		}
	}
	for c := 0; c < Order; c++ {
		for x := 0; x < 16; x++ {
			nibbleTable[c][x] = Mul(byte(c), byte(x))
			nibbleTable[c][16+x] = Mul(byte(c), byte(x<<4))
		}
	}
}

// Add returns the sum of a and b in GF(2^8). Addition and subtraction
// coincide in characteristic-2 fields.
func Add(a, b byte) byte { return a ^ b }

// Sub returns the difference of a and b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns the product of a and b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a divided by b in GF(2^8). It panics if b is zero, mirroring
// integer division semantics.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	diff := int(logTable[a]) - int(logTable[b])
	if diff < 0 {
		diff += Order - 1
	}
	return expTable[diff]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Exp returns base raised to the power n in GF(2^8). Exp(0, 0) is defined as
// 1 by convention.
func Exp(base byte, n int) byte {
	if n == 0 {
		return 1
	}
	if base == 0 {
		return 0
	}
	logSum := (int(logTable[base]) * n) % (Order - 1)
	if logSum < 0 {
		logSum += Order - 1
	}
	return expTable[logSum]
}

// PowGenerator returns generator^n; it is the canonical way to obtain the
// n-th distinct evaluation point for Vandermonde-style code matrices.
func PowGenerator(n int) byte { return Exp(generator, n) }

// vectorPrefix runs the vector kernel over the longest 32-byte-multiple prefix
// of src, overwriting dst with c*src or, with xor set, folding c*src into it,
// and returns the prefix's length: 0 where the vector kernel is not in use or
// src is shorter than one step. The caller finishes with the portable loop.
func vectorPrefix(c byte, dst, src []byte, xor bool) int {
	if !useVector || len(src) < 32 {
		return 0
	}
	n := len(src) &^ 31
	for i := 0; i < n; i += vectorRun {
		end := min(i+vectorRun, n)
		mulVector(&nibbleTable[c], dst[i:end], src[i:end], xor)
	}
	return n
}

// MulSlice multiplies every byte of src by the scalar c and stores the result
// in dst. dst and src must have equal length; MulSlice panics otherwise. dst
// may be src itself (Matrix.Invert scales rows in place).
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	i := vectorPrefix(c, dst, src, false)
	t := &mulTable[c]
	for ; i < len(src); i++ {
		dst[i] = t[src[i]]
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] for every index. dst and src must
// have equal length; MulAddSlice panics otherwise.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		return
	}
	i := vectorPrefix(c, dst, src, true)
	t := &mulTable[c]
	for ; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}

// DotSlices sets dst[i] = coeffs[0]*srcs[0][i] ^ ... ^ coeffs[m-1]*srcs[m-1][i]
// for every index: one output row of a matrix-vector product over byte
// slices, which is what erasure encoding and decoding are made of. The first
// source overwrites dst and the rest are folded in one at a time. There must
// be at least one source, one coefficient per source, and every source must
// have dst's length; DotSlices panics otherwise. dst must not overlap any
// source.
func DotSlices(coeffs []byte, dst []byte, srcs [][]byte) {
	if len(srcs) == 0 || len(coeffs) != len(srcs) {
		panic(fmt.Sprintf("gf256: DotSlices has %d coefficients for %d sources", len(coeffs), len(srcs)))
	}
	for j, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("gf256: DotSlices source %d length mismatch %d != %d", j, len(s), len(dst)))
		}
	}
	MulSlice(coeffs[0], dst, srcs[0])
	for j := 1; j < len(srcs); j++ {
		MulAddSlice(coeffs[j], dst, srcs[j])
	}
}

// AddSlice computes dst[i] ^= src[i] for every index. dst and src must have
// equal length; AddSlice panics otherwise.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: AddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	for i, s := range src {
		dst[i] ^= s
	}
}
