// Package transport moves RMW envelopes between clients and the processes
// hosting base objects. It provides the Transport seam of the redesigned
// invocation API — dsys.RoundInvoker plus teardown — and two implementations:
//
//   - Loopback: the in-process RoundInvoker over a backing cluster, for tests
//     and for bench's RMW capturer. Every RMW and answer is round-tripped
//     through register.Wire — the codecs' wire form, which every controlled
//     cluster also delivers through — and applied by the backing cluster's
//     own engine.
//   - Client/Server (tcp.go, server.go): a thin length-prefixed TCP transport
//     with per-node connection reuse, write pipelining that coalesces
//     concurrent rounds into batched socket writes, and context deadlines.
//
// A remote shard.Set (shard.NewRemote) binds the register emulations to a
// Transport, which is how the same algorithms, workload generator, and
// history checkers run against a real multi-process cluster.
package transport

import (
	"context"
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// Transport delivers quorum rounds of RMW envelopes to base objects and can
// be shut down. dsys.NewRemoteCluster closes a Transport it is given when the
// cluster itself is closed.
type Transport interface {
	dsys.RoundInvoker
	Close() error
}

// Loopback is the in-process RoundInvoker over a backing cluster, for tests
// and for benchmarks that capture a round's RMW stream: rounds are served by
// the backing cluster's own engine, each RMW and answer round-tripped through
// register.Wire, the codecs' wire form, on the way. The backing cluster is
// borrowed, not owned: closing the loopback does not close it.
type Loopback struct {
	c *dsys.Cluster
}

var _ Transport = (*Loopback)(nil)

// NewLoopback wraps a local cluster.
func NewLoopback(c *dsys.Cluster) *Loopback { return &Loopback{c: c} }

// InvokeRound implements dsys.RoundInvoker. The backing engine applies a round
// of a posted kind as it applies any round — in controlled mode the policy
// still decides when each RMW takes effect — but no answer crosses back: the
// round returns a nil map and a nil error, as the TCP client's does. The
// answers of any other round are round-tripped into a result map from
// dsys.RoundResult before RunScoped returns: they are the client handle's,
// and a live handle goes back to its pool then.
func (l *Loopback) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var wire register.Wire
	var codecErr error
	posted := false
	sent := make(map[int]dsys.RMW, len(targets))
	var out map[int]any
	var invokeErr error
	runErr := l.c.RunScoped(client, 0, l.c.N(), func(h *dsys.ClientHandle) error {
		var resp []any
		resp, invokeErr = h.Invoke(targets, func(obj int) dsys.RMW {
			rmw := makeRMW(obj)
			env, isPosted, coded, err := wire.AppendRequest(nil, dsys.OpID{Client: client}, obj, rmw)
			if err == nil && !coded {
				err = fmt.Errorf("%w: no codec for RMW type %T", register.ErrCodec, rmw)
			}
			var decoded dsys.RMW
			if err == nil {
				decoded, err = wire.DecodeRequest(env, nil)
			}
			if err != nil {
				// A kind without a codec cannot cross a wire; surface the
				// error after the round and let the original RMW apply so the
				// engine's quorum bookkeeping stays consistent.
				if codecErr == nil {
					codecErr = err
				}
				return rmw
			}
			sent[obj] = rmw
			posted = isPosted
			return decoded
		}, quorum)
		if codecErr != nil || posted {
			return nil
		}
		out = dsys.RoundResult()
		for obj, r := range resp {
			if r == nil {
				continue
			}
			v, err := wire.Answer(sent[obj], r)
			if err != nil {
				return err
			}
			out[obj] = v
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	if codecErr != nil {
		return nil, codecErr
	}
	if posted {
		return nil, nil
	}
	return out, invokeErr
}

// Close implements Transport. The backing cluster has its own owner, so
// closing the loopback is a no-op.
func (l *Loopback) Close() error { return nil }
