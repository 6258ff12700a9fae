package transport

import (
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/trace"
)

// Metric families emitted by the transport. Client-side series are labeled by
// node address so a flapping or slow node stands out; server-side series are
// labeled by response status so fault statuses (object-down, recovering, ...)
// are countable without log scraping.
const (
	metricRPCSeconds     = "spacebounds_transport_rpc_seconds"
	metricRedialsTotal   = "spacebounds_transport_redials_total"
	metricInflightFrames = "spacebounds_transport_inflight_frames"
	metricServerSeconds  = "spacebounds_transport_server_request_seconds"
	metricServerTotal    = "spacebounds_transport_server_requests_total"
)

// WithMetrics instruments the client against the registry: per-node RPC
// latency (request frame out to response frame in), redials, and in-flight
// frames. Series are created at Dial, so every configured node appears on the
// scrape page even before its first round. The client takes its instruments
// as options because it is built before the remote cluster it serves.
func WithMetrics(reg *metrics.Registry) ClientOption {
	return func(o *clientOptions) { o.metrics = reg }
}

// WithTracer attaches a tracer to the client: rounds whose context carries a
// sampled trace stamp it into every request envelope (the version-2 wire
// extension) and record one StageRPC span per request, noted with the node
// address (plus " abandoned" when the round stopped waiting before the
// response came, " lost" when the connection failed first). Untraced rounds
// emit byte-identical version-1 frames.
func WithTracer(tr *trace.Tracer) ClientOption {
	return func(o *clientOptions) { o.tracer = tr }
}

// nodeMetrics is the client's per-node instrumentation.
type nodeMetrics struct {
	rpc      *metrics.Histogram
	redials  *metrics.Counter
	inflight *metrics.Gauge
}

// newNodeMetrics builds the per-node series; nil registry yields nil (every
// use site is nil-checked or nil-safe).
func newNodeMetrics(reg *metrics.Registry, addr string) *nodeMetrics {
	if reg == nil {
		return nil
	}
	node := metrics.L("node", addr)
	return &nodeMetrics{
		rpc:      reg.Histogram(metricRPCSeconds, "request-to-response latency of one frame by node", metrics.LatencyBuckets(), node),
		redials:  reg.Counter(metricRedialsTotal, "connection dial attempts beyond the first by node", node),
		inflight: reg.Gauge(metricInflightFrames, "request frames awaiting a response by node", node),
	}
}

// observeResponse records a frame's completion: the in-flight gauge drops and,
// if the call carries a start instant, its latency is observed. Failed frames
// (connection shutdown) are not timed — the latency series means served
// responses, not timeouts.
func (nm *nodeMetrics) observeResponse(call *pendingCall, ok bool) {
	if nm == nil {
		return
	}
	nm.inflight.Add(-1)
	if ok && !call.start.IsZero() {
		nm.rpc.ObserveSince(call.start)
	}
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

// instruments is the server's instrumentation, read from the cluster it
// serves when the server is built: with a registry, request service latency
// and a per-status response counter; with a tracer, requests arriving with a
// wire trace context record a StageApply span parented under the client's RPC
// span, and the journal's WAL stages parent under the apply in turn. Requests
// without a trace context cost one field comparison.
type instruments struct {
	reg     *metrics.Registry
	latency *metrics.Histogram
	tr      *trace.Tracer
}

// newInstruments reads the cluster's registry and tracer, registering the
// server's families eagerly so they appear on the scrape page before the
// first request.
func newInstruments(c *dsys.Cluster) instruments {
	in := instruments{reg: c.Metrics(), tr: c.Tracer()}
	if in.reg != nil {
		in.latency = in.reg.Histogram(metricServerSeconds, "server-side request service latency", metrics.LatencyBuckets())
		in.reg.Counter(metricServerTotal, "requests served by response status", metrics.L("status", dsys.StatusOK.String()))
	}
	return in
}

// observeServe records one served request.
func (in *instruments) observeServe(start time.Time, status dsys.Status) {
	if in.reg == nil {
		return
	}
	in.latency.ObserveSince(start)
	in.reg.Counter(metricServerTotal, "requests served by response status", metrics.L("status", status.String())).Inc()
}
