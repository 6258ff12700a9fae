//go:build race

package spacebounds

// Under the race detector a sync.Pool drops a quarter of what is put back, so
// an operation now and then allocates the client handle it would have
// borrowed, with its answer slots and the memory the handle lends — a
// write's chunk list and round arrays, a read's round array and decoder
// list, two allocations each — and an unbatched one the pooled op with its
// two bound functions too: about 3.25 allocations a write on average. Over
// fifteen runs of TestOperationAllocations and
// TestUnbatchedOperationAllocations' shapes the counts rose by at most 3.
func init() { poolDropAllocs = 4 }
