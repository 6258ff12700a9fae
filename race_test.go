//go:build race

package spacebounds

// Under the race detector a sync.Pool drops a quarter of what is put back, so
// an unbatched operation now and then allocates the pooled op it would have
// borrowed, with its two bound functions, and the client handle: one
// allocation an operation on average, measured over ten runs of
// TestUnbatchedOperationAllocations.
func init() { poolDropAllocs = 2 }
