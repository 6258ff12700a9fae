package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE per family, one line
// per counter/gauge series, and the _bucket/_sum/_count expansion per
// histogram series. Families appear in registration order, series of a
// family in sorted order, so output is deterministic and golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n", name, f.Help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.Type)
		switch f.Type {
		case TypeCounter:
			for _, key := range sortedKeysOf(r.counters, name) {
				c := r.counters[key]
				fmt.Fprintf(w, "%s%s %d\n", name, labelString(c.labels), c.Value())
			}
		case TypeGauge:
			for _, key := range sortedKeysOf(r.gauges, name) {
				g := r.gauges[key]
				fmt.Fprintf(w, "%s%s %d\n", name, labelString(g.labels), g.Value())
			}
		case TypeHistogram:
			for _, key := range sortedKeysOf(r.hists, name) {
				h := r.hists[key]
				s := h.snapshot()
				cum := uint64(0)
				for i, bound := range s.Bounds {
					cum += s.Counts[i]
					fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(h.labels, formatFloat(bound)), cum)
				}
				cum += s.Counts[len(s.Counts)-1]
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(h.labels, "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(h.labels), formatFloat(s.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(h.labels), s.Count)
			}
		}
	}
}

// bucketLabels renders a histogram bucket's label set: the series labels
// plus the cumulative "le" bound.
func bucketLabels(labels []Label, le string) string {
	b := strings.Builder{}
	b.WriteByte('{')
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q,", l.Key, l.Value)
	}
	fmt.Fprintf(&b, "le=%q}", le)
	return b.String()
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// expvarSeries is one series in the expvar JSON rendering.
type expvarSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	P50    float64           `json:"p50,omitempty"`
	P95    float64           `json:"p95,omitempty"`
	P99    float64           `json:"p99,omitempty"`
}

// String implements expvar.Var: the whole registry as one JSON object keyed
// by family name, each family an array of series. Histogram series carry
// count, sum, and the p50/p95/p99 estimates rather than raw buckets — the
// expvar view is for humans and polling scripts; Prometheus gets the full
// bucket expansion.
func (r *Registry) String() string {
	if r == nil {
		return "{}"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	doc := make(map[string][]expvarSeries, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		var out []expvarSeries
		switch f.Type {
		case TypeCounter:
			for _, key := range sortedKeysOf(r.counters, name) {
				c := r.counters[key]
				out = append(out, expvarSeries{Labels: labelMap(c.labels), Value: c.Value()})
			}
		case TypeGauge:
			for _, key := range sortedKeysOf(r.gauges, name) {
				g := r.gauges[key]
				out = append(out, expvarSeries{Labels: labelMap(g.labels), Value: g.Value()})
			}
		case TypeHistogram:
			for _, key := range sortedKeysOf(r.hists, name) {
				h := r.hists[key]
				s := h.snapshot()
				out = append(out, expvarSeries{
					Labels: labelMap(h.labels),
					Count:  s.Count,
					Sum:    s.Sum,
					P50:    s.Quantile(0.50),
					P95:    s.Quantile(0.95),
					P99:    s.Quantile(0.99),
				})
			}
		}
		doc[name] = out
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Sprintf("{\"error\":%q}", err.Error())
	}
	return string(data)
}

// labelMap converts the ordered label list to a map for JSON rendering.
func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// WriteSummary prints a human-readable digest of every histogram series with
// at least one observation — count, mean, p50/p95/p99 — plus every non-zero
// counter. It is what spacebench prints at the end of a -connect run.
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		switch f.Type {
		case TypeHistogram:
			for _, key := range sortedKeysOf(r.hists, name) {
				h := r.hists[key]
				s := h.snapshot()
				if s.Count == 0 {
					continue
				}
				fmt.Fprintf(w, "  %-58s n=%-7d mean=%s p50=%s p95=%s p99=%s\n",
					name+labelString(h.labels), s.Count,
					formatSeconds(s.Mean()), formatSeconds(s.Quantile(0.50)),
					formatSeconds(s.Quantile(0.95)), formatSeconds(s.Quantile(0.99)))
			}
		case TypeCounter:
			for _, key := range sortedKeysOf(r.counters, name) {
				c := r.counters[key]
				if v := c.Value(); v != 0 {
					fmt.Fprintf(w, "  %-58s %d\n", name+labelString(c.labels), v)
				}
			}
		}
	}
}

// formatSeconds renders a histogram statistic. Latency families observe
// seconds; count families (batch sizes) observe dimensionless values, so
// small magnitudes print as durations and the rest as plain numbers.
func formatSeconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1:
		return fmt.Sprintf("%.3gms", v*1e3)
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}
