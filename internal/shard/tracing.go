package shard

import (
	"context"

	"spacebounds/internal/dsys"
	"spacebounds/internal/trace"
)

// SetTracer attaches a tracer to the set (nil detaches): WriteValue/ReadValue
// and the routed read path begin root spans, batch lanes record batch-wait
// spans, and the underlying cluster records quorum-round spans labeled by
// shard name. Like SetMetrics, attach before serving operations.
func (s *Set) SetTracer(tr *trace.Tracer) {
	s.trc.Store(tr)
	s.cluster.SetTracer(tr)
}

// Tracer returns the attached tracer (nil when none).
func (s *Set) Tracer() *trace.Tracer { return s.trc.Load() }

// beginOp opens the root span of one client operation on a shard when a
// tracer is attached and sampling selects the operation. The returned Pending
// is inert otherwise, so untraced call sites pay one pointer load.
func (s *Set) beginOp(sh *Shard, kind string) trace.Pending {
	tr := s.trc.Load()
	if tr == nil {
		return trace.Pending{}
	}
	bc := tr.Begin()
	if !bc.Sampled() {
		return trace.Pending{}
	}
	sp := tr.Start(bc, trace.StageOp)
	sp.Span.Shard = sh.Name
	sp.Span.Note = kind
	return sp
}

// runTraced is Set.Run with a trace context: when tc is sampled the client
// handle is rebound so the register's quorum rounds parent under it.
func (s *Set) runTraced(client int, sh *Shard, tc trace.Context, fn func(h *dsys.ClientHandle) error) error {
	return s.cluster.RunScoped(client, sh.Base, sh.Span, func(h *dsys.ClientHandle) error {
		if tc.Sampled() {
			h = h.WithContext(trace.NewContext(context.Background(), tc))
		}
		return fn(h)
	})
}
