//go:build !amd64 || purego

package gf256

// useVector is false wherever the assembly is not built: the slice kernels
// are the portable loops alone.
var useVector = false

func mulVector(tbl *[32]byte, dst, src []byte, xor bool) {
	panic("gf256: no vector kernel in this build")
}
