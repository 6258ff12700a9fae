package dsys

import (
	"strconv"
	"sync"
	"time"

	"spacebounds/internal/metrics"
	"spacebounds/internal/trace"
)

// Metric families emitted by the engine. Quorum-round series are labeled by
// region so a sharded store sees per-shard latency; the applies counter is
// node-side (it counts RMWs taking effect on this process's base objects).
const (
	metricRoundSeconds = "spacebounds_dsys_quorum_round_seconds"
	metricRoundsTotal  = "spacebounds_dsys_quorum_rounds_total"
	metricAppliesTotal = "spacebounds_dsys_applies_total"
)

// WithMetrics instruments the cluster against the registry: every quorum
// round observes its latency and outcome, labeled by region name (see
// NameRegion), and ApplyOne counts applied RMWs. Nil leaves metrics off.
func WithMetrics(reg *metrics.Registry) Option { return func(o *options) { o.metrics = reg } }

// WithTracer gives the cluster a tracer: quorum rounds on handles whose
// context carries a sampled trace record StageRound spans labeled by region
// name, and journaled applies forward the trace context to the journal.
// Nil leaves tracing off.
func WithTracer(tr *trace.Tracer) Option { return func(o *options) { o.tracer = tr } }

// instruments is what the cluster derives from the registry and the tracer
// it was built with (options.metrics, options.tracer; nil when off): the
// applies counter, and the one base → region table that both the quorum-round
// series and the round spans label by, so the two can never disagree. The
// layers above the cluster — the shard set and its batchers, the
// reconfiguration coordinator, the journal, a transport server — read the
// registry and the tracer back through Metrics and Tracer.
type instruments struct {
	applies *metrics.Counter // nil without a registry; nil-safe

	mu      sync.RWMutex
	regions map[int]*region // keyed by region base object ID
}

// region is one object region: its label and, on a cluster with a registry,
// its quorum-round series.
type region struct {
	name    string
	latency *metrics.Histogram
	ok      *metrics.Counter
	errs    *metrics.Counter
}

// Metrics returns the registry the cluster was built with (nil when none).
func (c *Cluster) Metrics() *metrics.Registry { return c.opts.metrics }

// Tracer returns the tracer the cluster was built with (nil when none). The
// shard set opens operation spans into it, the batcher records lane waits,
// the coordinator records migration steps, the journal its appends and a
// transport server its applies.
func (c *Cluster) Tracer() *trace.Tracer { return c.opts.tracer }

// NameRegion names the object region rooted at base; a region never named is
// labeled by its numeric base. With a registry the region's series are
// created right away, so they appear on the scrape page (and in the doc-sync
// walk) before the first round runs.
func (c *Cluster) NameRegion(base int, name string) {
	r := c.newRegion(name)
	c.inst.mu.Lock()
	c.inst.regions[base] = r
	c.inst.mu.Unlock()
}

// newRegion builds a region labeled name, with its series when there is a
// registry.
func (c *Cluster) newRegion(name string) *region {
	r := &region{name: name}
	if reg := c.opts.metrics; reg != nil {
		l := metrics.L("region", name)
		r.latency = reg.Histogram(metricRoundSeconds, "quorum round latency by region", metrics.LatencyBuckets(), l)
		r.ok = reg.Counter(metricRoundsTotal, "quorum rounds completed by region and outcome", l, metrics.L("outcome", "ok"))
		r.errs = reg.Counter(metricRoundsTotal, "quorum rounds completed by region and outcome", l, metrics.L("outcome", "error"))
	}
	return r
}

// region returns the region rooted at base, entering an unnamed one under its
// numeric base on first use.
func (c *Cluster) region(base int) *region {
	in := &c.inst
	in.mu.RLock()
	r := in.regions[base]
	in.mu.RUnlock()
	if r != nil {
		return r
	}
	r = c.newRegion(strconv.Itoa(base))
	in.mu.Lock()
	defer in.mu.Unlock()
	if cur := in.regions[base]; cur != nil {
		return cur
	}
	in.regions[base] = r
	return r
}

// observeRound records one finished quorum round: resp and err are what it
// returned. A remote round of a posted kind returns neither (RoundInvoker); it
// waited for no quorum and is not recorded.
func (r *region) observeRound(start time.Time, resp map[int]any, err error) {
	if resp == nil && err == nil {
		return
	}
	r.latency.ObserveSince(start)
	if err != nil {
		r.errs.Inc()
	} else {
		r.ok.Inc()
	}
}

// traceRound opens a quorum-round span when the cluster has a tracer and the
// handle's context carries a sampled trace. It returns the handle the round
// should dispatch through — rebound so downstream stages (the transport's
// per-node RPCs, the node-side apply) parent under the round span — and the
// pending span. On the untraced path it returns the receiver and an inert
// Pending: one field load, no allocation.
func (h *ClientHandle) traceRound() (*ClientHandle, trace.Pending) {
	tr := h.c.opts.tracer
	if tr == nil {
		return h, trace.Pending{}
	}
	tc := trace.FromContext(h.ctx)
	if !tc.Sampled() {
		return h, trace.Pending{}
	}
	sp := tr.Start(tc, trace.StageRound)
	sp.Span.Shard = h.c.region(h.base).name
	return h.WithContext(trace.NewContext(h.context(), sp.Context())), sp
}

// finishRound closes a round span and links it as a latency exemplar for the
// quorum-round histogram family, so the histogram's tail points at a concrete
// inspectable trace.
func (h *ClientHandle) finishRound(sp *trace.Pending) {
	if !sp.Active() {
		return
	}
	sp.Done()
	h.c.opts.tracer.Exemplar(metricRoundSeconds, trace.Context{Trace: sp.Span.Trace}, sp.Span.Duration)
}
