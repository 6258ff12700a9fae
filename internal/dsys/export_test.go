package dsys

// Residue reports what a handle still references: whether any field but its
// answer slots is set, and how many of its slots, over their whole capacity,
// hold an answer — and with it, the RMW the answer rides in. A handle that
// RunScoped has put back in its pool references nothing.
func Residue(h *ClientHandle) (fieldsSet bool, answers int) {
	fieldsSet = h.c != nil || h.id != 0 || h.task != nil || h.base != 0 || h.span != 0 ||
		h.ctx != nil || h.currentOp != (OpID{})
	for _, a := range h.slots[:cap(h.slots)] {
		if a != nil {
			answers++
		}
	}
	return fieldsSet, answers
}
