package wal

import (
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/trace"
)

// Metric families emitted by the write-ahead log. All are node-side: a
// spacenode exports its own journal, an in-process store exports one family
// set per attached journal (they share series if they share a registry).
const (
	metricAppendSeconds  = "spacebounds_wal_append_seconds"
	metricFsyncSeconds   = "spacebounds_wal_fsync_seconds"
	metricReplaySeconds  = "spacebounds_wal_replay_seconds"
	metricAppendsTotal   = "spacebounds_wal_appends_total"
	metricFsyncsTotal    = "spacebounds_wal_fsyncs_total"
	metricSnapshotsTotal = "spacebounds_wal_snapshots_total"
	metricReplayedTotal  = "spacebounds_wal_replayed_records_total"
	metricLogBytes       = "spacebounds_wal_log_bytes"
	metricSnapshotBytes  = "spacebounds_wal_snapshot_bytes"
)

// walMetrics holds the journal's instrumentation handles; swapped in
// atomically by SetMetrics.
type walMetrics struct {
	appendSec *metrics.Histogram
	fsyncSec  *metrics.Histogram
	replaySec *metrics.Histogram
	appends   *metrics.Counter
	fsyncs    *metrics.Counter
	snapshots *metrics.Counter
	replayed  *metrics.Counter
	logBytes  *metrics.Gauge
	snapBytes *metrics.Gauge
}

// now returns the wall clock only when metrics are attached, so the disabled
// path never calls time.Now.
func (m *walMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// SetMetrics attaches a metrics registry to the journal: appends, fsyncs,
// snapshots, and replays observe latency and volume from then on. All
// families register eagerly so they appear on the scrape page (and in the
// doc-sync walk) before the first append. Passing nil detaches.
func (j *Journal) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		j.met.Store(nil)
		return
	}
	j.met.Store(&walMetrics{
		appendSec: reg.Histogram(metricAppendSeconds, "WAL append latency (frame, write, policy fsync)", metrics.LatencyBuckets()),
		fsyncSec:  reg.Histogram(metricFsyncSeconds, "WAL fsync latency", metrics.LatencyBuckets()),
		replaySec: reg.Histogram(metricReplaySeconds, "WAL recovery replay duration", metrics.LatencyBuckets()),
		appends:   reg.Counter(metricAppendsTotal, "records appended to the WAL"),
		fsyncs:    reg.Counter(metricFsyncsTotal, "WAL fsyncs issued"),
		snapshots: reg.Counter(metricSnapshotsTotal, "snapshots taken (each truncates the log)"),
		replayed:  reg.Counter(metricReplayedTotal, "log records scanned by recovery replays"),
		logBytes:  reg.Gauge(metricLogBytes, "current WAL segment bytes on disk"),
		snapBytes: reg.Gauge(metricSnapshotBytes, "current snapshot bytes on disk"),
	})
}

// RecordApplyTraced implements dsys.TracedJournal: journal one applied
// mutating RMW carrying the apply's trace context. On a journal attached to a
// traced cluster a sampled apply records a StageWALAppend span, parented under
// the node-side apply span (or, in-process, under the quorum round), and a
// StageWALFsync child when the append trips the sync policy — so an assembled
// trace shows how much of an op's latency was durability.
func (j *Journal) RecordApplyTraced(object int, rmw dsys.RMW, tc trace.Context) {
	if j.tr == nil || !tc.Sampled() {
		j.RecordApply(object, rmw)
		return
	}
	j.recordApply(object, rmw, j.tr, tc)
}

// compile-time check: the journal satisfies the traced-journal upgrade, so
// dsys.SetJournal routes sampled applies through RecordApplyTraced.
var _ dsys.TracedJournal = (*Journal)(nil)
