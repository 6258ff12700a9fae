//go:build race

package gf256

// The race detector makes the full coefficient sweep take the better part of
// a minute and has nothing to find in it (one goroutine, and the assembly is
// not instrumented): every sixteenth coefficient, rotating with the length.
func init() { sweepStride = 16 }
