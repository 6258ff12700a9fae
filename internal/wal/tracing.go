package wal

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/trace"
)

// SetTracer attaches (or, with nil, detaches) a tracer. Sampled applies then
// record a StageWALAppend span per journaled RMW and a StageWALFsync child
// when the append trips the sync policy. Untraced appends take one atomic
// load extra.
func (j *Journal) SetTracer(tr *trace.Tracer) {
	j.trc.Store(tr)
}

// Tracer returns the attached tracer, or nil.
func (j *Journal) Tracer() *trace.Tracer { return j.trc.Load() }

// RecordApplyTraced implements dsys.TracedJournal: journal one applied
// mutating RMW carrying the apply's trace context. The append span parents
// under the node-side apply span (or, in-process, under the quorum round),
// so an assembled trace shows how much of an op's latency was durability.
func (j *Journal) RecordApplyTraced(object int, rmw dsys.RMW, tc trace.Context) {
	tr := j.trc.Load()
	if tr == nil || !tc.Sampled() {
		j.RecordApply(object, rmw)
		return
	}
	j.recordApply(object, rmw, tr, tc)
}

// compile-time check: the journal satisfies the traced-journal upgrade, so
// dsys.SetJournal routes sampled applies through RecordApplyTraced.
var _ dsys.TracedJournal = (*Journal)(nil)
