package dsys

import (
	"fmt"
	"io"
	"sync"

	"spacebounds/internal/trace"
)

// emptyState is the placeholder state of a base object whose real state lives
// in another process. A remote cluster holds one per object so that scope
// arithmetic (N(), Sub) and advisory storage sampling keep working; it stores
// no blocks, so it contributes nothing to Definition-2 accounting — the real
// charge is computed where the state actually lives.
type emptyState struct{}

// AppendBlocks implements State.
func (emptyState) AppendBlocks(dst []BlockRef) []BlockRef { return dst }

// NewRemoteCluster creates a client-side view of a cluster whose n base
// objects are hosted elsewhere: every Invoke round is delegated to the given
// RoundInvoker (a transport) instead of applying RMWs locally. The register
// emulations run unchanged on top of it — they see the same ClientHandle API —
// which is what turns the one-process simulation into a real client talking to
// a real cluster. Remote clusters run in live mode, so they take no per-step
// storage samples, and their placeholder objects hold no blocks; controlled
// (policy-driven) scheduling is inherently in-process and is not available
// remotely. Of opts, only the instruments (WithMetrics, WithTracer)
// are meant for a remote cluster.
func NewRemoteCluster(n int, inv RoundInvoker, opts ...Option) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("dsys: remote cluster with %d objects", n))
	}
	if inv == nil {
		panic("dsys: remote cluster with nil invoker")
	}
	states := make([]State, n)
	for i := range states {
		states[i] = emptyState{}
	}
	c := NewCluster(states, append([]Option{WithLiveMode()}, opts...)...)
	c.remote = inv
	return c
}

// roundResults holds the result maps of answered remote rounds, empty, for
// the next round to fill: a map keeps its buckets when it is cleared, so an
// answered round allocates no result once the pool has one.
var roundResults = sync.Pool{New: func() any { return make(map[int]any) }}

// RoundResult returns an empty map for a RoundInvoker to return a round's
// answers in.
func RoundResult() map[int]any { return roundResults.Get().(map[int]any) }

// ReleaseRoundResult empties a map RoundInvoker returned and gives it back to
// RoundResult; the caller must not use it afterwards. A nil map is ignored.
func ReleaseRoundResult(m map[int]any) {
	if m == nil {
		return
	}
	clear(m)
	roundResults.Put(m)
}

// closeRemote shuts down the transport behind a remote cluster, if it owns
// one that is closable. Called from Close so that Set.Close / Store.Close
// tears transports down along with everything else.
func (c *Cluster) closeRemote() {
	if cl, ok := c.remote.(io.Closer); ok {
		// Transport close errors have nowhere to go during teardown; the
		// transport itself surfaces them on the operation paths.
		_ = cl.Close()
	}
}

// ApplyOne applies a single RMW to base object id (a global ID) immediately,
// serialized by the object's apply mutex. It is the server-side entry point a
// transport uses to make a decoded remote RMW take effect; the object's
// lifecycle flags map onto the envelope statuses via the returned sentinel
// errors (ErrUnknownObject, ErrRetiredObject, ErrObjectDown, ErrHalted).
func (c *Cluster) ApplyOne(id int, rmw RMW) (any, error) {
	return c.ApplyOneTraced(id, rmw, trace.Context{})
}

// ApplyOneTraced is ApplyOne carrying the trace context the RMW's envelope
// arrived with: a sampled apply forwards it to the journal so WAL stages
// record under the originating operation's trace. The zero context makes it
// exactly ApplyOne.
func (c *Cluster) ApplyOneTraced(id int, rmw RMW, tc trace.Context) (any, error) {
	if c.liveHalted.Load() {
		return nil, ErrHalted
	}
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	r, err := objects[id].apply(c, rmw, tc, false)
	if err != nil {
		return nil, fmt.Errorf("%w: %d", err, id)
	}
	c.inst.applies.Inc()
	return r, nil
}
