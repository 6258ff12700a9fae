//go:build race

package transport

// Under the race detector a sync.Pool drops a quarter of what is put back, so
// a round now and then allocates the writer, timer or round state it would
// have borrowed: 2.5 allocations a round on average, measured over 5000
// rounds of TestRoundAllocations' shape.
//
// A remote operation borrows from pools for every request it sends and every
// one a node serves: under the race detector its count rose by 4 to 14 over
// ten runs of TestRemoteOperationAllocations' shapes (a 64 KiB write the
// most). A round of a remote cluster's handle borrows from the remote
// engine's pools too: TestAwaitedRemoteRoundAllocations' count rose by 4 or
// 5 over thirty runs.
func init() { poolDropAllocs, opPoolDropAllocs = 3, 16 }
