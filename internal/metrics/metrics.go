// Package metrics is the system's dependency-free observability registry:
// counters, gauges, and fixed-bucket latency histograms with quantile
// summaries, exported over both expvar-style JSON and the Prometheus text
// format (see export.go and http.go).
//
// The design goals, in order:
//
//  1. Near-zero overhead when disabled. Every constructor on a nil *Registry
//     returns a nil metric, and every metric method is nil-safe, so an
//     uninstrumented hot path pays one predictable branch per call site and
//     allocates nothing. Subsystems therefore take a *Registry directly and
//     never wrap it in an interface or a feature flag.
//  2. Zero allocations when enabled. Counters and gauges are single atomics;
//     a histogram observation is a binary search over a fixed bucket table
//     plus two atomic adds. Nothing on the observation path allocates, which
//     a test pins with testing.AllocsPerRun.
//  3. Doc-syncable. Every metric family (name, type, help, label keys) is
//     recorded at registration, so docs/METRICS.md can be checked against the
//     registry at runtime instead of drifting (see the doc-sync test in the
//     root package).
//
// Metric identity is the family name plus an ordered label list; registering
// the same name with a different type or label key set panics, which turns
// cross-subsystem naming collisions into immediate test failures rather than
// silently merged time series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value pair attached to a metric series. Labels are
// ordered; all series of one family must pass the same keys in the same
// order.
type Label struct {
	// Key is the label name (e.g. "shard").
	Key string
	// Value is the label value (e.g. "s0").
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Type enumerates the metric kinds the registry supports.
type Type int

// Metric kinds.
const (
	// TypeCounter is a monotonically increasing count.
	TypeCounter Type = iota
	// TypeGauge is an instantaneous value that can go up and down.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution with count and sum.
	TypeHistogram
)

// String implements fmt.Stringer with the Prometheus type names.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Family is the metadata of one metric name: its type, help text, and label
// key set. The doc-sync test walks families, not individual series, so
// per-shard and per-node label values never need doc table rows.
type Family struct {
	// Name is the full metric name (e.g. "spacebounds_dsys_quorum_round_seconds").
	Name string
	// Type is the metric kind.
	Type Type
	// Help is the one-line description emitted as # HELP.
	Help string
	// LabelKeys are the label names every series of the family carries.
	LabelKeys []string
}

// Registry holds metric families and their series. The zero value is not
// usable; call NewRegistry. A nil *Registry is the disabled registry: every
// constructor returns nil and every exported method no-ops.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*Family
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*Family),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// seriesKey builds the map key of one series: name plus rendered labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	b := strings.Builder{}
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register records the family, panicking on a type or label-key mismatch
// with an earlier registration of the same name. Caller holds r.mu.
func (r *Registry) register(name, help string, t Type, labels []Label) {
	keys := make([]string, len(labels))
	for i, l := range labels {
		keys[i] = l.Key
	}
	if f, ok := r.families[name]; ok {
		if f.Type != t {
			panic(fmt.Sprintf("metrics: %s re-registered as %v, was %v", name, t, f.Type))
		}
		if len(f.LabelKeys) != len(keys) {
			panic(fmt.Sprintf("metrics: %s re-registered with label keys %v, was %v", name, keys, f.LabelKeys))
		}
		for i := range keys {
			if f.LabelKeys[i] != keys[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with label keys %v, was %v", name, keys, f.LabelKeys))
			}
		}
		return
	}
	r.families[name] = &Family{Name: name, Type: t, Help: help, LabelKeys: keys}
	r.order = append(r.order, name)
}

// Families returns the registered families in registration order.
func (r *Registry) Families() []Family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Family, 0, len(r.order))
	for _, name := range r.order {
		f := *r.families[name]
		f.LabelKeys = append([]string(nil), f.LabelKeys...)
		out = append(out, f)
	}
	return out
}

// Counter returns the counter series for name+labels, creating it (and its
// family) on first use. On a nil registry it returns nil, which is the
// disabled counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[key]; c != nil {
		return c
	}
	r.register(name, help, TypeCounter, labels)
	c = &Counter{labels: append([]Label(nil), labels...)}
	r.counters[key] = c
	return c
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[key]; g != nil {
		return g
	}
	r.register(name, help, TypeGauge, labels)
	g = &Gauge{labels: append([]Label(nil), labels...)}
	r.gauges[key] = g
	return g
}

// Histogram returns the histogram series for name+labels, creating it with
// the given bucket upper bounds (ascending; +Inf is implicit) on first use.
// Series of one family share the first-registered bucket table.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[key]; h != nil {
		return h
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not ascending: %v", name, buckets))
		}
	}
	r.register(name, help, TypeHistogram, labels)
	h = &Histogram{
		labels: append([]Label(nil), labels...),
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.hists[key] = h
	return h
}

// Counter is a monotonically increasing count. A nil *Counter is disabled:
// all methods no-op.
type Counter struct {
	n      atomic.Int64
	labels []Label
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds delta (negative deltas are a programming error and are dropped).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous value. A nil *Gauge is disabled.
type Gauge struct {
	n      atomic.Int64
	labels []Label
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.n.Store(v)
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.n.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// Histogram is a fixed-bucket distribution. Observations are in the unit the
// family name declares (seconds for latency families, following the
// Prometheus convention). A nil *Histogram is disabled.
type Histogram struct {
	labels []Label
	bounds []float64       // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; counts[i] observations in bucket i
	count  atomic.Uint64
	sumX   atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v ("le" semantics: an observation
	// exactly on a bound counts in that bound's bucket).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumX.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumX.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records time elapsed since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// histogramSnapshot is a consistent-enough point-in-time copy of a
// histogram: per-bucket cumulative counts, total count, and sum. Snapshots
// taken during concurrent observation may be torn by at most the
// observations in flight, which is the usual scrape-time contract.
type histogramSnapshot struct {
	// Bounds are the bucket upper bounds (+Inf excluded).
	Bounds []float64
	// Counts[i] is the number of observations in bucket i; len(Bounds)+1
	// entries, the last being the +Inf overflow bucket.
	Counts []uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum float64
}

// snapshot copies the histogram's current state (zero value for nil).
func (h *Histogram) snapshot() histogramSnapshot {
	if h == nil {
		return histogramSnapshot{}
	}
	s := histogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumX.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution by linear interpolation within the bucket that contains the
// target rank — the standard fixed-bucket estimate, exact at bucket bounds.
// Observations in the +Inf bucket are estimated as the largest finite bound.
// It returns 0 for an empty (or nil) histogram.
func (s histogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate toward.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(n)
		return lower + (upper-lower)*frac
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average observation (0 when empty).
func (s histogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// LatencyBuckets is the default bucket table for latency histograms:
// exponential from 50µs to ~13s, sized so both in-process rounds (tens of µs)
// and real TCP round trips (ms) land in the interpolable range.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 18)
	for b := 50e-6; b < 15; b *= 2 {
		out = append(out, b)
	}
	return out
}

// CountBuckets is the default bucket table for small-count distributions
// (batch sizes): 1, 2, 4, ... 512.
func CountBuckets() []float64 {
	out := make([]float64, 0, 10)
	for b := 1.0; b <= 512; b *= 2 {
		out = append(out, b)
	}
	return out
}

// labelString renders labels for export, sorted output not required — labels
// keep their registration order, which all series of a family share.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	b := strings.Builder{}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedSeriesKeys returns the series keys of one family, sorted for
// deterministic export. Caller holds r.mu (read).
func sortedKeysOf[T any](m map[string]T, family string) []string {
	keys := make([]string, 0, 4)
	for k := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
