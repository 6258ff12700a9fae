package wal

// SegmentFile is the journal's view of its active segment.
type SegmentFile = segmentFile

// WrapSegmentFile makes the journal reach its active segment — the open one,
// and each one a later rotation opens — through wrap's result, which is how
// tests make writes, fsyncs and closes fail.
func (j *Journal) WrapSegmentFile(wrap func(SegmentFile) SegmentFile) {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	j.wrapFile = wrap
	j.f = wrap(j.f)
}

// RecomputedLogBytes sums every segment's per-object bytes: what the running
// total LogBytes reports must equal.
func (j *Journal) RecomputedLogBytes() int64 {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	var total int64
	for _, seg := range j.segments {
		for _, b := range seg.bytes {
			total += b
		}
	}
	return total
}

// SkippedUnknownRMWs counts mutating RMWs that could not be journaled for
// lack of a registered codec (zero in any store built from this module's
// providers).
func (j *Journal) SkippedUnknownRMWs() int {
	j.jmu.Lock()
	defer j.jmu.Unlock()
	return j.unknownRMWs
}
