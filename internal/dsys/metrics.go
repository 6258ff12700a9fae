package dsys

import (
	"strconv"
	"sync"
	"time"

	"spacebounds/internal/metrics"
)

// Metric families emitted by the engine. Quorum-round series are labeled by
// region so a sharded store sees per-shard latency; the applies counter is
// node-side (it counts RMWs taking effect on this process's base objects).
const (
	metricRoundSeconds = "spacebounds_dsys_quorum_round_seconds"
	metricRoundsTotal  = "spacebounds_dsys_quorum_rounds_total"
	metricAppliesTotal = "spacebounds_dsys_applies_total"
)

// clusterMetrics holds the cluster's instrumentation handles. It is swapped
// in atomically by SetMetrics so the hot path pays one pointer load (and
// nothing else) when metrics are disabled.
type clusterMetrics struct {
	c       *Cluster
	reg     *metrics.Registry
	applies *metrics.Counter

	mu      sync.RWMutex
	regions map[int]*regionRounds // keyed by region base object ID
}

// regionRounds is the per-region quorum-round instrumentation.
type regionRounds struct {
	latency *metrics.Histogram
	ok      *metrics.Counter
	errs    *metrics.Counter
}

// NameRegion names the object region rooted at base. The cluster keeps one
// base → name table, read by both the quorum-round histogram labels and the
// quorum-round spans, so the two can never disagree; a region never named is
// labeled by its numeric base. With a registry attached the region's series
// are created right away, so they appear on the scrape page (and in the
// doc-sync walk) before the first round runs.
func (c *Cluster) NameRegion(base int, name string) {
	c.regionMu.Lock()
	if c.regionNames == nil {
		c.regionNames = make(map[int]string)
	}
	c.regionNames[base] = name
	c.regionMu.Unlock()
	if m := c.met.Load(); m != nil {
		m.roundsFor(base)
	}
}

// regionName resolves a region base to its label.
func (c *Cluster) regionName(base int) string {
	c.regionMu.RLock()
	name, ok := c.regionNames[base]
	c.regionMu.RUnlock()
	if ok {
		return name
	}
	return strconv.Itoa(base)
}

// SetMetrics attaches a metrics registry to the cluster: every quorum round
// from then on observes its latency and outcome, labeled by region name (see
// NameRegion), and ApplyOne counts applied RMWs. The series of every region
// named so far are created eagerly. Passing nil detaches.
func (c *Cluster) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		c.met.Store(nil)
		return
	}
	m := &clusterMetrics{
		c:       c,
		reg:     reg,
		applies: reg.Counter(metricAppliesTotal, "RMWs applied to this node's base objects"),
		regions: make(map[int]*regionRounds),
	}
	c.regionMu.RLock()
	bases := make([]int, 0, len(c.regionNames))
	for base := range c.regionNames {
		bases = append(bases, base)
	}
	c.regionMu.RUnlock()
	for _, base := range bases {
		m.roundsFor(base)
	}
	c.met.Store(m)
}

// roundsFor returns the instrumentation for the region rooted at base,
// creating its three series under the region's current name on first use.
func (m *clusterMetrics) roundsFor(base int) *regionRounds {
	m.mu.RLock()
	rr := m.regions[base]
	m.mu.RUnlock()
	if rr != nil {
		return rr
	}
	region := metrics.L("region", m.c.regionName(base))
	m.mu.Lock()
	defer m.mu.Unlock()
	if rr = m.regions[base]; rr == nil {
		rr = &regionRounds{
			latency: m.reg.Histogram(metricRoundSeconds, "quorum round latency by region", metrics.LatencyBuckets(), region),
			ok:      m.reg.Counter(metricRoundsTotal, "quorum rounds completed by region and outcome", region, metrics.L("outcome", "ok")),
			errs:    m.reg.Counter(metricRoundsTotal, "quorum rounds completed by region and outcome", region, metrics.L("outcome", "error")),
		}
		m.regions[base] = rr
	}
	return rr
}

// observeRound records one finished quorum round for the region at base.
func (m *clusterMetrics) observeRound(base int, start time.Time, err error) {
	rr := m.roundsFor(base)
	rr.latency.ObserveSince(start)
	if err != nil {
		rr.errs.Inc()
	} else {
		rr.ok.Inc()
	}
}
