package spacebounds

import "spacebounds/internal/trace"

// Tracer is the store's per-operation flight recorder: sampled operations
// record fixed-shape spans for every stage they pass through — the facade op,
// batcher group-commit wait, quorum round, per-node RPC, node-side apply, and
// write-ahead-log append/fsync — into a bounded lock-free ring. The dump
// (Handler on the operational HTTP port, or Dump programmatically) carries
// whole-trace slow-op captures and the slowest trace per latency family, so a
// tail-latency spike links straight from a histogram to the op that caused
// it. A nil *Tracer is the disabled tracer: every method no-ops and the
// per-operation cost is one branch. See docs/TRACING.md.
type Tracer = trace.Tracer

// TraceOptions configure a Tracer: sampling probability, the slow-op
// threshold, ring capacity, and the process/node identity stamped on every
// span.
type TraceOptions = trace.Options

// NewTracer creates a tracer to pass in Options.Trace.
func NewTracer(o TraceOptions) *Tracer { return trace.New(o) }
