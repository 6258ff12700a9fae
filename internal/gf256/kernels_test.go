package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// needVector skips a test or benchmark of the vector kernel where there is
// none to run.
func needVector(tb testing.TB) {
	if !useVector {
		tb.Skip("no vector kernel here: it needs amd64 with AVX2 (CPUID, and YMM state enabled by the OS) and a build without -tags purego")
	}
}

// usePortable switches the vector kernel off until the test or benchmark ends.
func usePortable(tb testing.TB) {
	was := useVector
	useVector = false
	tb.Cleanup(func() { useVector = was })
}

// eachKernel runs fn once on the vector kernel and once on the portable loops.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Run("vector", func(t *testing.T) { needVector(t); fn(t) })
	t.Run("portable", func(t *testing.T) { usePortable(t); fn(t) })
}

// guard is the run of canary bytes either side of a destination: a multiple of
// 32, so a destination offset still counts from a 32-byte-aligned address.
const guard = 32

// aligned returns n bytes that start at a 32-byte-aligned address.
func aligned(n int) []byte {
	buf := make([]byte, n+31)
	skip := -int(uintptr(unsafe.Pointer(&buf[0]))) & 31
	return buf[skip : skip+n : skip+n]
}

// kernelCheck checks the four slice kernels against scalar Mul (which keeps
// its log/exp tables) over one set of sources: place lays the sources and the
// destination out, expect works out what the kernels must produce for a
// coefficient vector, run runs them on whichever kernel is switched on.
type kernelCheck struct {
	srcs, bufs, placed [][]byte // as given; aligned room for each; where place put them
	srcOff, lo         int      // lo is where the destination starts in area
	area, want, canary []byte   // the destination between its canaries; what it must read after a kernel ran; all canary
	coeffs             []byte
	stale, prod, sum   []byte // destination contents before; coeffs[0]*srcs[0]; their sum
	dot                []byte // the whole dot product
}

func newKernelCheck(srcs [][]byte) *kernelCheck {
	n := len(srcs[0])
	k := &kernelCheck{srcs: srcs, bufs: make([][]byte, len(srcs)), placed: make([][]byte, len(srcs))}
	for j := range srcs {
		k.bufs[j] = aligned(32 + n)
	}
	k.area = aligned(guard + 32 + n + guard)
	k.canary = bytes.Repeat([]byte{0xc5}, len(k.area))
	k.want = make([]byte, len(k.area))
	k.stale, k.prod, k.sum, k.dot = make([]byte, n), make([]byte, n), make([]byte, n), make([]byte, n)
	// Stale destination contents: an overwriting kernel must not let them
	// through, an accumulating one must fold into exactly them.
	for i := range k.stale {
		k.stale[i] = srcs[len(srcs)-1][n-1-i] ^ 0x5a
	}
	k.place(0, 0)
	return k
}

// place puts source j (srcOff+j) mod 32 bytes past a 32-byte-aligned address
// and the destination dstOff mod 32 bytes past one, between canary bytes: an
// assembly loop that runs one step long, or starts one early, shows up there.
func (k *kernelCheck) place(srcOff, dstOff int) *kernelCheck {
	k.srcOff, k.lo = srcOff&31, guard+dstOff&31
	for j, s := range k.srcs {
		off := (srcOff + j) & 31
		k.placed[j] = k.bufs[j][off : off+len(s)]
		copy(k.placed[j], s)
	}
	return k
}

// expect sets the coefficients: one per source. MulSlice and MulAddSlice are
// checked with the first coefficient and source, DotSlices with all.
func (k *kernelCheck) expect(coeffs []byte) *kernelCheck {
	k.coeffs = coeffs
	for i := range k.dot {
		k.prod[i] = Mul(coeffs[0], k.srcs[0][i])
		k.sum[i] = k.stale[i] ^ k.prod[i]
		k.dot[i] = k.prod[i]
		for j := 1; j < len(k.srcs); j++ {
			k.dot[i] ^= Mul(coeffs[j], k.srcs[j][i])
		}
	}
	return k
}

func (k *kernelCheck) run(t *testing.T) {
	t.Helper()
	n := len(k.stale)
	dst := k.area[k.lo : k.lo+n]
	for _, name := range []string{"MulSlice", "MulSlice in place", "MulAddSlice", "DotSlices"} {
		copy(k.area, k.canary)
		copy(k.want, k.canary)
		copy(dst, k.stale)
		switch name {
		case "MulSlice":
			copy(k.want[k.lo:], k.prod)
			MulSlice(k.coeffs[0], dst, k.placed[0])
		case "MulSlice in place":
			copy(dst, k.srcs[0])
			copy(k.want[k.lo:], k.prod)
			MulSlice(k.coeffs[0], dst, dst)
		case "MulAddSlice":
			copy(k.want[k.lo:], k.sum)
			MulAddSlice(k.coeffs[0], dst, k.placed[0])
		case "DotSlices":
			copy(k.want[k.lo:], k.dot)
			DotSlices(k.coeffs, dst, k.placed)
		}
		if bytes.Equal(k.area, k.want) {
			continue
		}
		for i := range k.area {
			if k.area[i] != k.want[i] {
				t.Fatalf("%s (vector kernel %v) coeffs=%#x n=%d srcOff=%d dstOff=%d: byte %d of the destination (canaries are %d..-1 and %d..%d) = %#x, want %#x",
					name, useVector, k.coeffs, n, k.srcOff, k.lo-guard, i-k.lo, -k.lo, n, len(k.area)-k.lo-1, k.area[i], k.want[i])
			}
		}
	}
	for j := range k.srcs {
		if !bytes.Equal(k.placed[j], k.srcs[j]) {
			t.Fatalf("source %d was written to (vector kernel %v, coeffs=%#x n=%d)", j, useVector, k.coeffs, n)
		}
	}
}

// sweepStride thins the coefficients the two sweeps below try: not at all,
// except in race_test.go.
var sweepStride = 1

// TestSliceKernelsMatchScalarMul sweeps every kernel, vector and portable,
// over all 256 coefficients, every length from 0 to 131 (no step, one to four
// steps of the vector loop, every tail length) and every source offset from
// an aligned address; the destination offset is paired so that over the
// lengths each meets every source offset.
func TestSliceKernelsMatchScalarMul(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= 131; n++ {
			src := make([]byte, n)
			rng.Read(src)
			if n > 0 {
				src[0] = 0 // the zero byte has no logarithm; the tables must still map it to 0
			}
			k := newKernelCheck([][]byte{src})
			for c := n % sweepStride; c < Order; c += sweepStride {
				k.expect([]byte{byte(c)})
				for off := 0; off < 32; off++ {
					k.place(off, 7*off+n).run(t)
				}
			}
		}
	})
}

// TestDotSlicesMatchesScalarMul covers the overwriting first source and the
// sources folded in after it: every source count from 1 to 9, every length
// from 0 to 131, and every coefficient value (zero included) in some position.
func TestDotSlicesMatchesScalarMul(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for m := 1; m <= 9; m++ {
			for n := 0; n <= 131; n++ {
				srcs := make([][]byte, m)
				for j := range srcs {
					srcs[j] = make([]byte, n)
					rng.Read(srcs[j])
				}
				k, coeffs := newKernelCheck(srcs), make([]byte, m)
				for c := 5 * (n % sweepStride); c < Order; c += 5 * sweepStride {
					for j := range coeffs {
						coeffs[j] = byte(c + 37*j)
					}
					k.place(5*n+m, 3*n+c).expect(coeffs).run(t)
				}
			}
		}
	})
}

// TestKernelsAcrossBoundedRuns uses slices longer than one call of the
// assembly routine covers, with a tail, so the hand-over between runs and from
// the last run to the portable loop is exercised.
func TestKernelsAcrossBoundedRuns(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{vectorRun, vectorRun + 32, 2*vectorRun + 32 + 7} {
			srcs := make([][]byte, 3)
			for j := range srcs {
				srcs[j] = make([]byte, n)
				rng.Read(srcs[j])
			}
			newKernelCheck(srcs).place(1, 3).expect([]byte{0x8e, 0x01, 0xf3}).run(t)
		}
	})
}

// TestKernelsDoNotAllocate pins "nothing is allocated on any path": below one
// vector step, exactly one, one plus a tail, and a shard-sized slice with a
// tail.
func TestKernelsDoNotAllocate(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, n := range []int{31, 32, 33, 16<<10 + 5} {
			dst, a, b := make([]byte, n), make([]byte, n), make([]byte, n)
			coeffs, srcs := []byte{0x53, 0x54}, [][]byte{a, b}
			for name, fn := range map[string]func(){
				"MulSlice":    func() { MulSlice(0x53, dst, a) },
				"MulAddSlice": func() { MulAddSlice(0x53, dst, a) },
				"DotSlices":   func() { DotSlices(coeffs, dst, srcs) },
			} {
				if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
					t.Errorf("%s over %d bytes: %v allocations per call, want 0", name, n, allocs)
				}
			}
		}
	})
}

// FuzzKernelsMatchScalar feeds a kernelCheck arbitrary coefficients (one per
// source, up to nine), bytes (split evenly between the sources) and offsets,
// on the vector kernel and on the portable loops.
func FuzzKernelsMatchScalar(f *testing.F) {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + i>>8 + 1)
		}
		return b
	}
	// No vector step; exactly one, two and four; one byte either side of
	// each; two bounded runs and a tail; zero and one as coefficients.
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 131, 2*vectorRun + 33} {
		f.Add([]byte{0x8e}, pattern(n), uint8(0), uint8(0))
		f.Add([]byte{0x00, 0x01, 0xff}, pattern(3*n), uint8(31), uint8(1))
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, pattern(9*40+5), uint8(7), uint8(29))
	f.Fuzz(func(t *testing.T, coeffs, data []byte, srcOff, dstOff uint8) {
		if len(coeffs) == 0 {
			return
		}
		coeffs = coeffs[:min(len(coeffs), 9)]
		n := len(data) / len(coeffs)
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = data[j*n : (j+1)*n]
		}
		k := newKernelCheck(srcs).place(int(srcOff), int(dstOff)).expect(coeffs)
		if useVector {
			k.run(t)
		}
		usePortable(t)
		k.run(t)
	})
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

// benchShapes are the pieces the kernel micro-benchmarks code: a 16 KiB
// piece of a 64 KiB value at k = 4 (the benchmark's tcp-large shape), and a
// 512-byte piece of a 1 KiB value at k = 2 (tcp-small's and inproc-batched's),
// where a call's fixed cost outweighs its bytes.
var benchShapes = []struct {
	name     string
	k, piece int
}{
	{"k=4/16KiB", 4, 16 << 10},
	{"k=2/512B", 2, 512},
}

func benchSources(k, piece int) (dst []byte, srcs [][]byte, coeffs []byte) {
	rng := rand.New(rand.NewSource(4))
	dst = make([]byte, piece)
	for j := 0; j < k; j++ {
		s := make([]byte, piece)
		rng.Read(s)
		srcs = append(srcs, s)
		coeffs = append(coeffs, byte(0x53+j))
	}
	return dst, srcs, coeffs
}

// benchEachShape runs fn over k sources of one piece each, for every shape, as
// a "vector" and a "portable" sub-benchmark, so both kernels' rows print side
// by side.
func benchEachShape(b *testing.B, fn func(b *testing.B, dst []byte, srcs [][]byte, coeffs []byte)) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			run := func(b *testing.B) {
				dst, srcs, coeffs := benchSources(sh.k, sh.piece)
				b.SetBytes(int64(sh.k * sh.piece))
				b.ReportAllocs()
				b.ResetTimer()
				fn(b, dst, srcs, coeffs)
			}
			b.Run("vector", func(b *testing.B) { needVector(b); run(b) })
			b.Run("portable", func(b *testing.B) { usePortable(b); run(b) })
		})
	}
}

// BenchmarkMulAdd is k MulAddSlice passes into one destination.
func BenchmarkMulAdd(b *testing.B) {
	benchEachShape(b, func(b *testing.B, dst []byte, srcs [][]byte, coeffs []byte) {
		for i := 0; i < b.N; i++ {
			for j := range srcs {
				MulAddSlice(coeffs[j], dst, srcs[j])
			}
		}
	})
}

// BenchmarkDotSlices is one parity shard of a value: the first source
// overwrites, k-1 are folded in.
func BenchmarkDotSlices(b *testing.B) {
	benchEachShape(b, func(b *testing.B, dst []byte, srcs [][]byte, coeffs []byte) {
		for i := 0; i < b.N; i++ {
			DotSlices(coeffs, dst, srcs)
		}
	})
}
