package shard

import (
	"context"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/trace"
)

// Metric families emitted by the sharding layer. Both are labeled by shard
// and lane (write/read) so group-commit behavior is visible per direction.
// The set reads its registry and tracer from its cluster (dsys.WithMetrics,
// dsys.WithTracer, passed to New or NewRemote); quorum-round series and spans
// are labeled by shard name through dsys.Cluster.NameRegion.
const (
	metricBatchWaitSeconds = "spacebounds_shard_batch_wait_seconds"
	metricBatchSizeOps     = "spacebounds_shard_batch_size_ops"
)

// instruments is a batcher's per-lane batch-wait and batch-size histograms.
type instruments struct {
	writeWait, readWait *metrics.Histogram
	writeSize, readSize *metrics.Histogram
}

// newInstruments builds the shard's lane histograms, or returns nil without a
// registry.
func newInstruments(reg *metrics.Registry, shard string) *instruments {
	if reg == nil {
		return nil
	}
	sl := metrics.L("shard", shard)
	waitHelp := "time an operation waits in the batch lane before its shared round dispatches"
	sizeHelp := "operations carried per shared quorum round"
	return &instruments{
		writeWait: reg.Histogram(metricBatchWaitSeconds, waitHelp, metrics.LatencyBuckets(), sl, metrics.L("lane", "write")),
		readWait:  reg.Histogram(metricBatchWaitSeconds, waitHelp, metrics.LatencyBuckets(), sl, metrics.L("lane", "read")),
		writeSize: reg.Histogram(metricBatchSizeOps, sizeHelp, metrics.CountBuckets(), sl, metrics.L("lane", "write")),
		readSize:  reg.Histogram(metricBatchSizeOps, sizeHelp, metrics.CountBuckets(), sl, metrics.L("lane", "read")),
	}
}

// observeBatch records one dispatched batch: its size and each member's
// lane-queue wait.
func (m *instruments) observeBatch(isWrite bool, batch []batchReq, now time.Time) {
	wait, size := m.readWait, m.readSize
	if isWrite {
		wait, size = m.writeWait, m.writeSize
	}
	size.Observe(float64(len(batch)))
	for _, r := range batch {
		wait.Observe(now.Sub(r.enq).Seconds())
	}
}

// beginOp opens the root span of one client operation on a shard when the
// cluster has a tracer and sampling selects the operation. The returned
// Pending is inert otherwise, so untraced call sites pay one field load.
func (s *Set) beginOp(sh *Shard, kind string) trace.Pending {
	tr := s.cluster.Tracer()
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
// handle is rebound so the register's quorum rounds parent under it. An
// unsampled run hands fn to the cluster as it is.
func (s *Set) runTraced(client int, sh *Shard, tc trace.Context, fn func(h *dsys.ClientHandle) error) error {
	if !tc.Sampled() {
		return s.cluster.RunScoped(client, sh.Base, sh.Span, fn)
	}
	return s.cluster.RunScoped(client, sh.Base, sh.Span, func(h *dsys.ClientHandle) error {
		return fn(h.WithContext(trace.NewContext(context.Background(), tc)))
	})
}
