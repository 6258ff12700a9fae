package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSliceKernelsMatchScalarMul checks every slice kernel against the scalar
// Mul (which keeps its log/exp tables) for all 256 coefficients and every
// length from 0 to 67, so each position of the unrolled word loops and each
// tail length is exercised.
func TestSliceKernelsMatchScalarMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		src := make([]byte, n)
		rng.Read(src)
		if n > 0 {
			src[0] = 0 // the zero byte has no logarithm; the table must still map it to 0
		}
		prior := make([]byte, n)
		rng.Read(prior)
		for c := 0; c < Order; c++ {
			got := make([]byte, n)
			MulSlice(byte(c), got, src)
			acc := bytes.Clone(prior)
			MulAddSlice(byte(c), acc, src)
			for i := range src {
				want := Mul(byte(c), src[i])
				if got[i] != want {
					t.Fatalf("MulSlice(%#x) n=%d: byte %d = %#x, want %#x", c, n, i, got[i], want)
				}
				if acc[i] != prior[i]^want {
					t.Fatalf("MulAddSlice(%#x) n=%d: byte %d = %#x, want %#x", c, n, i, acc[i], prior[i]^want)
				}
			}
		}
	}
}

// TestDotSlicesMatchesScalarMul covers the fused first four sources, fewer
// than four, and the sources folded in after them: every source count from 1
// to 9, every length from 0 to 67, and every coefficient value in some
// position.
func TestDotSlicesMatchesScalarMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for m := 1; m <= 9; m++ {
		for n := 0; n <= 67; n++ {
			srcs := make([][]byte, m)
			for j := range srcs {
				srcs[j] = make([]byte, n)
				rng.Read(srcs[j])
			}
			for c := 0; c < Order; c += 5 {
				coeffs := make([]byte, m)
				for j := range coeffs {
					coeffs[j] = byte(c + 37*j)
				}
				dst := make([]byte, n)
				rng.Read(dst) // DotSlices overwrites; stale contents must not leak through
				DotSlices(coeffs, dst, srcs)
				for i := range dst {
					var want byte
					for j := range srcs {
						want ^= Mul(coeffs[j], srcs[j][i])
					}
					if dst[i] != want {
						t.Fatalf("DotSlices m=%d n=%d c=%#x: byte %d = %#x, want %#x", m, n, c, i, dst[i], want)
					}
				}
			}
		}
	}
}

// TestMulSliceInPlace pins the aliasing Matrix.Invert relies on when it
// scales a pivot row: MulSlice(c, row, row).
func TestMulSliceInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 67; n++ {
		row := make([]byte, n)
		rng.Read(row)
		orig := bytes.Clone(row)
		MulSlice(0x8e, row, row)
		for i := range row {
			if row[i] != Mul(0x8e, orig[i]) {
				t.Fatalf("in-place MulSlice n=%d: byte %d = %#x, want %#x", n, i, row[i], Mul(0x8e, orig[i]))
			}
		}
	}
}

func TestDotSlicesPanicsOnBadShape(t *testing.T) {
	for name, fn := range map[string]func(){
		"no sources":      func() { DotSlices(nil, make([]byte, 2), nil) },
		"coefficients":    func() { DotSlices([]byte{1}, make([]byte, 2), [][]byte{{1, 2}, {3, 4}}) },
		"source too long": func() { DotSlices([]byte{1}, make([]byte, 2), [][]byte{{1, 2, 3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DotSlices with bad %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSystematicVandermonde(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {4, 4}, {8, 4}, {255, 200}} {
		rows, cols := dims[0], dims[1]
		m := SystematicVandermonde(rows, cols)
		for r := 0; r < cols; r++ {
			for c := 0; c < cols; c++ {
				want := byte(0)
				if r == c {
					want = 1
				}
				if m.At(r, c) != want {
					t.Fatalf("%dx%d: top is not the identity at (%d,%d): %#x", rows, cols, r, c, m.At(r, c))
				}
			}
		}
	}
	// Any cols distinct rows stay invertible, all-parity selections included.
	m := SystematicVandermonde(9, 4)
	for _, sel := range [][]int{{5, 6, 7, 8}, {0, 4, 5, 8}, {3, 2, 1, 4}} {
		if _, err := m.SubMatrix(sel).Invert(); err != nil {
			t.Errorf("rows %v of the systematic generator: %v", sel, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SystematicVandermonde(3, 4) did not panic")
		}
	}()
	SystematicVandermonde(3, 4)
}

// The kernel micro-benchmarks use one 16 KiB piece per source: the shard of a
// 64 KiB value at k = 4, the benchmark's tcp-large shape.
const benchPiece = 16 << 10

func benchSources(m int) (dst []byte, srcs [][]byte, coeffs []byte) {
	rng := rand.New(rand.NewSource(4))
	dst = make([]byte, benchPiece)
	for j := 0; j < m; j++ {
		s := make([]byte, benchPiece)
		rng.Read(s)
		srcs = append(srcs, s)
		coeffs = append(coeffs, byte(0x53+j))
	}
	return dst, srcs, coeffs
}

// BenchmarkMulAdd is four MulAddSlice passes into one destination: what one
// output shard cost before DotSlices.
func BenchmarkMulAdd(b *testing.B) {
	dst, srcs, coeffs := benchSources(4)
	b.SetBytes(4 * benchPiece)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range srcs {
			MulAddSlice(coeffs[j], dst, srcs[j])
		}
	}
}

// BenchmarkDotSlices is the same arithmetic as BenchmarkMulAdd in one pass.
func BenchmarkDotSlices(b *testing.B) {
	dst, srcs, coeffs := benchSources(4)
	b.SetBytes(4 * benchPiece)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DotSlices(coeffs, dst, srcs)
	}
}
