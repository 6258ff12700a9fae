package workload

import (
	"errors"
	"math/rand"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// Program is the client program of a routed workload, the one the simulator's
// client tasks and RunSharded's clients both run. Every operation resolves
// its key through the router and pins the route, so it is recorded on the
// register it actually runs on, whatever a move does to the key's shard. A
// write's value is value.Sequenced(client, seq), unique per client and write.
// Every operation ends one way: Completed, Halted (the cluster closed under
// it, or the router with it) or Failed (any other error: a read that
// exhausted its retry budget, a quorum that could not form). Ended hears
// each end.
type Program struct {
	// Router routes every operation.
	Router *shard.Router
	// Recs records the histories; nil records nothing.
	Recs *history.Recorders
	// Keys is the keyspace. A client draws each operation's key uniformly
	// from it, or Zipf-skewed toward its first keys when ZipfS > 1; a
	// one-key space draws no key. Then the operation is a read with
	// probability ReadFraction.
	Keys                []string
	ZipfS, ReadFraction float64
	// Ended is told how each operation ended.
	Ended func(End)
}

// Outcome is how an operation ended.
type Outcome uint8

const (
	// Completed: the operation returned, and its response is recorded.
	Completed Outcome = iota
	// Halted: the cluster or the router closed under the operation. Its
	// client can do nothing more.
	Halted
	// Failed: the operation returned an error while its client could go on.
	Failed
)

// End is one operation's end.
type End struct {
	// Client and Index name the operation: the client's Index-th.
	Client, Index int
	// Kind tells a read from a write.
	Kind history.OpKind
	// Shard is the shard whose register answered a completed operation (a
	// dual-epoch read's predecessor, when that answered), the shard the
	// operation was routed to otherwise; nil if it halted before routing.
	Shard   *shard.Shard
	Outcome Outcome
	// Err is the operation's error (nil when it completed).
	Err error
}

// Engine is how a runtime runs the program's operations. There are two, and
// they differ in exactly three places: how a write held by a seeding
// successor waits, how the operation runs, and the invocation stamp.
type Engine interface {
	// acquireWrite pins key's route for client's write, waiting while the
	// route's target is seeding.
	acquireWrite(rt *shard.Router, client int, key string) (*shard.Route, error)
	// read and write run the operation on the pinned route's shard.
	read(client int, ref, fb *shard.Route) (v value.Value, fell bool, err error)
	write(client int, sh *shard.Shard, v value.Value) error
	// invoked is the invocation stamp of an operation about to be routed.
	invoked(recs *history.Recorders) int64
}

// Controlled is the engine of a controlled-mode client task: it runs every
// operation on h, a handle over the whole cluster, so it can reach any
// shard a route names.
func Controlled(h *dsys.ClientHandle) Engine { return controlled{h} }

type controlled struct{ h *dsys.ClientHandle }

// acquireWrite yields to the scheduler while the write is held: blocking on
// the router would stop the one task that holds the run token, and the
// migration writer could never seed the successor.
func (c controlled) acquireWrite(rt *shard.Router, client int, key string) (*shard.Route, error) {
	for {
		ref, held, err := rt.TryAcquireWrite(client, key)
		if err != nil || !held {
			return ref, err
		}
		if err := c.h.Yield(); err != nil {
			return nil, err
		}
	}
}

func (c controlled) read(_ int, ref, fb *shard.Route) (value.Value, bool, error) {
	return shard.ReadRouted(c.h, ref, fb)
}

func (c controlled) write(_ int, sh *shard.Shard, v value.Value) error {
	sub, err := c.h.Sub(sh.Base, sh.Span)
	if err != nil {
		return err
	}
	return sh.Reg.Write(sub, v)
}

// invoked is 0: each copy of the operation is stamped as its recorder takes
// it, once the route is pinned, strictly after all that recorder stamped
// before. A task holds the run token from its ask to its pin, so no step
// falls between the two but a held write's yields, and until those end the
// write has done nothing. The simulator's fingerprints pin these stamps; the
// shared clock's raw reading, which two operations may share, moves them.
func (controlled) invoked(*history.Recorders) int64 { return 0 }

// live is the engine of a live client: the set runs the operation on its
// own handle, through the shard's batcher and under the operation's root
// trace span.
type live struct{ set *shard.Set }

func (l live) acquireWrite(rt *shard.Router, client int, key string) (*shard.Route, error) {
	return rt.AwaitAcquireWrite(client, key)
}

func (l live) read(client int, ref, fb *shard.Route) (value.Value, bool, error) {
	return l.set.ReadRef(client, ref, fb)
}

func (l live) write(client int, sh *shard.Shard, v value.Value) error {
	return l.set.WriteValue(client, sh, v)
}

// invoked reads the clock before the route is acquired: the operation is
// invoked when its caller asks, not once its route is pinned. A live read
// that pins a route, is descheduled across a split and then reads the
// drained register has been running all along; stamped any later, it would
// seem to skip the successors' first writes.
func (live) invoked(recs *history.Recorders) int64 { return recs.Now() }

// draws returns the operation source of a client whose generator is seeded
// with seed: each call draws an operation's key, then whether it reads.
func (p *Program) draws(seed int64) func() (key string, read bool) {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if p.ZipfS > 1 && len(p.Keys) > 1 {
		zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(len(p.Keys)-1))
	}
	return func() (string, bool) {
		i := 0
		switch {
		case zipf != nil:
			i = int(zipf.Uint64())
		case len(p.Keys) > 1:
			i = rng.Intn(len(p.Keys))
		}
		return p.Keys[i], rng.Float64() < p.ReadFraction
	}
}

// Run is client's closed loop: ops operations drawn from a generator seeded
// with seed, each invoked once the one before it ended. It stops early at an
// operation that halted.
func (p *Program) Run(e Engine, client, ops int, seed int64) {
	next := p.draws(seed)
	seq := 0
	for i := 0; i < ops; i++ {
		key, read := next()
		if !read {
			seq++
		}
		if p.runOp(e, client, i, key, read, seq) == Halted {
			return
		}
	}
}

// runOp runs client's index-th operation on key, a read or a write of its
// seq-th value, records it, and reports how it ended.
func (p *Program) runOp(e Engine, client, index int, key string, read bool, seq int) Outcome {
	end := End{Client: client, Index: index, Kind: history.Write}
	if read {
		end.Kind = history.Read
		end.Shard, end.Err = p.read(e, client, key)
	} else {
		end.Shard, end.Err = p.write(e, client, key, seq)
	}
	switch {
	case end.Err == nil:
		end.Outcome = Completed
	case errors.Is(end.Err, dsys.ErrHalted) || errors.Is(end.Err, shard.ErrRouterClosed):
		end.Outcome = Halted
	default:
		end.Outcome = Failed
	}
	p.Ended(end)
	return end.Outcome
}

func (p *Program) read(e Engine, client int, key string) (*shard.Shard, error) {
	invoked := e.invoked(p.Recs)
	ref, fb, err := p.Router.AcquireRead(client, key)
	if err != nil {
		return nil, err
	}
	sh, fbName := ref.Shard(), ""
	if fb != nil {
		fbName = fb.Shard().Name
	}
	op := p.Recs.BeginRead(client, invoked, sh.Name, fbName)
	v, fell, err := e.read(client, ref, fb)
	p.Router.ReleaseRead(ref, fb, client)
	if err != nil {
		return sh, err
	}
	op.EndRead(v, fell)
	if fell {
		sh = fb.Shard()
	}
	return sh, nil
}

func (p *Program) write(e Engine, client int, key string, seq int) (*shard.Shard, error) {
	invoked := e.invoked(p.Recs)
	ref, err := e.acquireWrite(p.Router, client, key)
	if err != nil {
		return nil, err
	}
	sh := ref.Shard()
	v := value.Sequenced(client, seq, sh.Reg.Config().DataLen)
	op := p.Recs.BeginWrite(client, invoked, sh.Name, v)
	err = e.write(client, sh, v)
	p.Router.ReleaseWrite(ref, client)
	if err != nil {
		return sh, err
	}
	op.EndWrite()
	return sh, nil
}
