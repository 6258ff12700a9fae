package dsys

import "spacebounds/internal/trace"

// SetTracer attaches a tracer to the cluster (nil detaches): quorum rounds on
// handles whose context carries a sampled trace record StageRound spans
// labeled by region name (see NameRegion), and journaled applies forward the
// trace context to a TracedJournal. Same atomic-pointer attachment pattern as
// SetMetrics — attaching never contends with rounds in flight, and detached
// operation costs one pointer load.
func (c *Cluster) SetTracer(tr *trace.Tracer) { c.trc.Store(tr) }

// Tracer returns the attached tracer (nil when none). Layers that sit on top
// of the cluster — the shard batcher in particular — use it to record their
// own stages into the same flight recorder.
func (c *Cluster) Tracer() *trace.Tracer { return c.trc.Load() }

// traceRound opens a quorum-round span when a tracer is attached and the
// handle's context carries a sampled trace. It returns the handle the round
// should dispatch through — rebound so downstream stages (the transport's
// per-node RPCs, the node-side apply) parent under the round span — and the
// pending span. On the untraced path it returns the receiver and an inert
// Pending: one pointer load, no allocation.
func (h *ClientHandle) traceRound() (*ClientHandle, trace.Pending) {
	tr := h.c.trc.Load()
	if tr == nil {
		return h, trace.Pending{}
	}
	tc := trace.FromContext(h.ctx)
	if !tc.Sampled() {
		return h, trace.Pending{}
	}
	sp := tr.Start(tc, trace.StageRound)
	sp.Span.Shard = h.c.regionName(h.base)
	return h.WithContext(trace.NewContext(h.context(), sp.Context())), sp
}

// finishRound closes a round span and links it as a latency exemplar for the
// quorum-round histogram family, so the histogram's tail points at a concrete
// inspectable trace.
func (h *ClientHandle) finishRound(sp *trace.Pending) {
	if !sp.Active() {
		return
	}
	sp.Done()
	if tr := h.c.trc.Load(); tr != nil {
		tr.Exemplar(metricRoundSeconds, trace.Context{Trace: sp.Span.Trace}, sp.Span.Duration)
	}
}
