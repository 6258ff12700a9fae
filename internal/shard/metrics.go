package shard

import (
	"time"

	"spacebounds/internal/metrics"
)

// Metric families emitted by the sharding layer. Both are labeled by shard
// and lane (write/read) so group-commit behavior is visible per direction.
const (
	metricBatchWaitSeconds = "spacebounds_shard_batch_wait_seconds"
	metricBatchSizeOps     = "spacebounds_shard_batch_size_ops"
)

// SetMetrics attaches a registry to the set: the underlying cluster starts
// observing quorum rounds (labeled by shard name, see dsys.Cluster.NameRegion),
// and every batcher starts observing batch-wait and batch-size distributions.
// Regions added later by AddRegion are instrumented as they appear. Passing
// nil detaches new regions' metrics but leaves already-attached batchers
// alone; in practice the registry is set once at open time.
func (s *Set) SetMetrics(reg *metrics.Registry) {
	s.met.Store(reg)
	s.cluster.SetMetrics(reg)
	if reg == nil {
		return
	}
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	for name, b := range s.batchers {
		b.setMetrics(reg, name)
	}
}

// batcherMetrics is a batcher's per-lane instrumentation; swapped in
// atomically so enabling metrics never blocks an in-flight batch.
type batcherMetrics struct {
	writeWait, readWait *metrics.Histogram
	writeSize, readSize *metrics.Histogram
}

// setMetrics attaches batch-wait and batch-size histograms for the shard.
func (b *Batcher) setMetrics(reg *metrics.Registry, shard string) {
	sl := metrics.L("shard", shard)
	waitHelp := "time an operation waits in the batch lane before its shared round dispatches"
	sizeHelp := "operations carried per shared quorum round"
	b.met.Store(&batcherMetrics{
		writeWait: reg.Histogram(metricBatchWaitSeconds, waitHelp, metrics.LatencyBuckets(), sl, metrics.L("lane", "write")),
		readWait:  reg.Histogram(metricBatchWaitSeconds, waitHelp, metrics.LatencyBuckets(), sl, metrics.L("lane", "read")),
		writeSize: reg.Histogram(metricBatchSizeOps, sizeHelp, metrics.CountBuckets(), sl, metrics.L("lane", "write")),
		readSize:  reg.Histogram(metricBatchSizeOps, sizeHelp, metrics.CountBuckets(), sl, metrics.L("lane", "read")),
	})
}

// observeBatch records one dispatched batch: its size and each member's
// lane-queue wait. Members enqueued before metrics were attached carry a zero
// timestamp and are skipped rather than recorded as an absurd wait.
func (m *batcherMetrics) observeBatch(isWrite bool, batch []batchReq, now time.Time) {
	wait, size := m.readWait, m.readSize
	if isWrite {
		wait, size = m.writeWait, m.writeSize
	}
	size.Observe(float64(len(batch)))
	for _, r := range batch {
		if !r.enq.IsZero() {
			wait.Observe(now.Sub(r.enq).Seconds())
		}
	}
}
