// Package transport moves RMW envelopes between clients and the processes
// hosting base objects. It provides the Transport seam of the redesigned
// invocation API — dsys.RoundInvoker plus teardown — and two implementations:
//
//   - Loopback: in-process. Every RMW and response is round-tripped through
//     its registered codec and the binary envelope layout, then applied by the
//     local cluster's own engine — live or controlled. Controlled mode thereby
//     stays deterministic and in-process (the policy still decides when each
//     RMW takes effect); the loopback only proves, and prices, the wire
//     encoding on the hot path.
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

// Loopback is the in-process Transport: rounds are served by the backing
// cluster's own engine, with every RMW and response passed through the full
// envelope wire format (codec encode, binary marshal, unmarshal, decode), so
// the in-process path exercises — and benchmarks — exactly the bytes the TCP
// transport would move. The backing cluster is borrowed, not owned: closing
// the loopback does not close it.
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
// answers of any other round are round-tripped into the result map before
// RunScoped returns: they are the client handle's, and a live handle goes back
// to its pool then.
func (l *Loopback) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var codecErr error
	posted := false
	sent := make(map[int]dsys.RMW, len(targets))
	var out map[int]any
	var invokeErr error
	runErr := l.c.RunScoped(client, 0, l.c.N(), func(h *dsys.ClientHandle) error {
		var resp []any
		resp, invokeErr = h.Invoke(targets, func(obj int) dsys.RMW {
			rmw := makeRMW(obj)
			decoded, c, err := roundTripRMW(client, obj, rmw)
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
			posted = c.Posted
			return decoded
		}, quorum)
		if codecErr != nil || posted {
			return nil
		}
		out = make(map[int]any, len(targets))
		for obj, r := range resp {
			if r == nil {
				continue
			}
			v, err := roundTripResponse(client, obj, sent[obj], r)
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

// roundTripRMW passes an RMW through the full wire path: codec encode,
// envelope marshal, unmarshal, codec decode. It returns the decoded RMW and
// the codec of its kind.
func roundTripRMW(client, obj int, rmw dsys.RMW) (dsys.RMW, register.Codec, error) {
	env, err := register.EncodeEnvelope(dsys.OpID{Client: client}, obj, rmw)
	if err != nil {
		return nil, register.Codec{}, err
	}
	wire, err := env.MarshalBinary()
	if err != nil {
		return nil, register.Codec{}, err
	}
	got, err := dsys.UnmarshalEnvelope(wire)
	if err != nil {
		return nil, register.Codec{}, err
	}
	return register.DecodeRMW(got)
}

// roundTripResponse passes an Apply response through the full wire path, and
// decodes it into sent, the RMW the round built, as a TCP client does.
func roundTripResponse(client, obj int, sent dsys.RMW, resp any) (any, error) {
	kind, _ := register.KindOf(sent)
	payload, err := register.EncodeResponse(kind, resp)
	if err != nil {
		return nil, err
	}
	r := dsys.Response{Op: dsys.OpID{Client: client}, Object: obj, Status: dsys.StatusOK, Payload: payload}
	wire, err := r.MarshalBinary()
	if err != nil {
		return nil, err
	}
	got, err := dsys.UnmarshalResponse(wire)
	if err != nil {
		return nil, err
	}
	return register.DecodeResponse(kind, sent, got.Payload)
}

// Close implements Transport. The backing cluster has its own owner, so
// closing the loopback is a no-op.
func (l *Loopback) Close() error { return nil }
