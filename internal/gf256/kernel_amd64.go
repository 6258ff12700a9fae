//go:build !purego

package gf256

// useVector says whether the slice kernels hand their 32-byte-multiple prefix
// to mulVector. It is set once, here, from CPUID; the package's tests switch
// it off to run every case on the portable loops as well.
var useVector = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves the
// YMM registers across context switches (CPUID leaf 1 OSXSAVE and AVX, XCR0
// bits 1 and 2, CPUID leaf 7 AVX2).
func hasAVX2() bool

// mulVector is the vector kernel: dst[i] = c*src[i], or dst[i] ^= c*src[i]
// with xor set, for the first len(dst)&^31 bytes, 32 bytes a step, where tbl is
// nibbleTable[c]. src must be at least as long as dst; dst may be src itself.
// It needs AVX2.
//
//go:noescape
func mulVector(tbl *[32]byte, dst, src []byte, xor bool)
