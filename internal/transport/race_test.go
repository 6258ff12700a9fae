//go:build race

package transport

// Under the race detector a sync.Pool drops a quarter of what is put back, so
// a round now and then allocates the writer, timer or round state it would
// have borrowed: 2.5 allocations a round on average, measured over 5000
// rounds of TestRoundAllocations' shape.
func init() { poolDropAllocs = 3 }
