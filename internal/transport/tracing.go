package transport

import (
	"time"

	"spacebounds/internal/trace"
)

// WithTracer attaches a tracer to the client: rounds whose context carries a
// sampled trace stamp it into every request envelope (the version-2 wire
// extension) and record one StageRPC span per request, noted with the node
// address (plus " abandoned" when the round stopped waiting before the
// response came, " lost" when the connection failed first). Untraced rounds
// emit byte-identical version-1 frames.
func WithTracer(tr *trace.Tracer) ClientOption {
	return func(o *clientOptions) { o.tracer = tr }
}

// WithServerTracer attaches a tracer to the server: requests arriving with a
// wire trace context record a StageApply span parented under the client's RPC
// span, and the journal's WAL stages parent under the apply in turn. Requests
// without a trace context cost one field comparison.
func WithServerTracer(tr *trace.Tracer) ServerOption {
	return func(o *serverOptions) { o.tracer = tr }
}

// recordRPC closes a traced call's RPC span (no-op for untraced calls). A
// served response (unserved "") records the round trip and feeds the RPC
// latency exemplar. A call that got no answer records the time until it was
// given up, noted "<addr> abandoned" when its round stopped waiting — a
// straggler past the quorum, a timeout, a failed send — and "<addr> lost"
// when the connection failed under it, so the apply span the node records
// under that ID is never an orphan; it feeds no exemplar, because like the
// RPC latency histogram the exemplar means served responses.
func (cc *clientConn) recordRPC(call *pendingCall, unserved string) {
	if cc.tr == nil || call.sp.Trace == 0 {
		return
	}
	sp := call.sp
	sp.Duration = time.Since(sp.Start)
	if unserved != "" {
		sp.Note += " " + unserved
	}
	cc.tr.Record(sp)
	if unserved == "" {
		cc.tr.Exemplar(metricRPCSeconds, trace.Context{Trace: sp.Trace}, sp.Duration)
	}
}
