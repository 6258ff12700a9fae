package dsys

// Residue reports what a handle, and the Sub handle it keeps, still
// reference: whether any field but their answer slots is set, and how many of
// their slots, over their whole capacity, hold an answer — and with it, the
// RMW the answer rides in. A handle that RunScoped has put back in its pool
// references nothing.
func Residue(h *ClientHandle) (fieldsSet bool, answers int) {
	fieldsSet = h.c != nil || h.id != 0 || h.task != nil || h.base != 0 || h.span != 0 ||
		h.whole || h.ctx != nil || h.currentOp != (OpID{})
	for _, a := range h.slots[:cap(h.slots)] {
		if a != nil {
			answers++
		}
	}
	if h.sub != nil {
		subSet, subAnswers := Residue(h.sub)
		fieldsSet, answers = fieldsSet || subSet, answers+subAnswers
	}
	return fieldsSet, answers
}

// StepTotals returns the sums the controlled coordinator's per-step walk
// records into the peaks. Call it only where c's lock is held — from a
// Policy's Decide — to compare with View.Storage().
func StepTotals(c *Cluster) (total, base int) { return c.storageTotalsLocked() }
