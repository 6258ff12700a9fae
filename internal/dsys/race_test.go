//go:build race

package dsys

// Under the race detector a sync.Pool drops a quarter of what is put back, so
// a remote round now and then allocates the remoteRound it would have
// borrowed, with its bound factory, RMW list and target list: one allocation
// a round on average.
func init() { remotePoolDropAllocs = 2 }
