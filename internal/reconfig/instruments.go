package reconfig

import (
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/trace"
)

// Metric families emitted by the reconfiguration subsystem: how long each
// ledger step takes and how moves end. Together they make migration stalls
// visible while a move is still in flight — the one-shot Stats struct only
// reports after the fact.
const (
	metricStepSeconds = "spacebounds_reconfig_step_seconds"
	metricMovesTotal  = "spacebounds_reconfig_moves_total"
)

// instruments is the coordinator's registry and tracer, read from its set's
// cluster when the coordinator is built (nil when the cluster has none). With
// a registry every completed ledger step observes its latency (labeled by
// step name) and every move that finishes, aborts, or is interrupted bumps an
// outcome counter (labeled by move kind). With a tracer each move gets its own
// trace — moves are rare and operator-initiated, so every one is traced
// regardless of the op sampling rate — with one StageReconfig span per
// completed ledger step, noted with the step name: scraping /debug/trace
// while a migration runs shows which step a stalled move is stuck in.
type instruments struct {
	reg *metrics.Registry
	tr  *trace.Tracer
}

// newInstruments reads the cluster's instruments and registers the families
// eagerly, so they appear on the scrape page (and in the doc-sync walk)
// before the first move runs.
func newInstruments(c *dsys.Cluster) instruments {
	in := instruments{reg: c.Metrics(), tr: c.Tracer()}
	if in.reg != nil {
		in.reg.Histogram(metricStepSeconds, "migration ledger step latency by step", metrics.LatencyBuckets(), metrics.L("step", StepTableFlip.String()))
		in.reg.Counter(metricMovesTotal, "reconfiguration moves by kind and outcome", metrics.L("kind", MoveSplit.String()), metrics.L("outcome", "done"))
	}
	return in
}

// openTrace gives a move about to be driven — newly begun, or taken over by
// Resume, a move restored from the journal among them — its own trace, unless
// it has one.
func (in instruments) openTrace(en *moveEntry) {
	if in.tr != nil && !en.traceCtx.Sampled() {
		en.traceCtx = trace.Context{Trace: in.tr.SpanID()}
	}
}

// stepDone records one completed ledger step of en: its latency and a
// StageReconfig span on the move's trace. en.stepStart is the instant the
// previous step completed, or the move began or was resumed.
func (in instruments) stepDone(en *moveEntry, step MoveStep) {
	if in.reg != nil {
		in.reg.Histogram(metricStepSeconds, "migration ledger step latency by step", metrics.LatencyBuckets(), metrics.L("step", step.String())).ObserveSince(en.stepStart)
	}
	if in.tr != nil {
		in.tr.Record(trace.Span{
			Trace:    en.traceCtx.Trace,
			ID:       in.tr.SpanID(),
			Parent:   en.traceCtx.Span,
			Stage:    trace.StageReconfig,
			Shard:    en.Move.Shard,
			Note:     step.String(),
			Start:    en.stepStart,
			Duration: time.Since(en.stepStart),
		})
	}
}

// countOutcome records how a move ended: "done", "aborted", or "interrupted"
// (interrupted moves stay in the ledger for Resume, so one move may count
// several interruptions before its final done/aborted).
func (in instruments) countOutcome(kind MoveKind, outcome string) {
	if in.reg != nil {
		in.reg.Counter(metricMovesTotal, "reconfiguration moves by kind and outcome", metrics.L("kind", kind.String()), metrics.L("outcome", outcome)).Inc()
	}
}
