package shard

// Parents returns every migration predecessor of this route (two for a merge
// successor), in installation order.
func (e *Route) Parents() []string {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	return append([]string(nil), e.parents...)
}
