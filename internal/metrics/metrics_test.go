package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metrics, got %v %v %v", c, g, h)
	}
	// Every method on the nil metrics must be a no-op, not a panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil metrics must read zero")
	}
	if got := h.snapshot(); got.Count != 0 {
		t.Fatalf("nil histogram snapshot: %+v", got)
	}
	if r.Families() != nil {
		t.Fatalf("nil registry families must be nil")
	}
	r.WritePrometheus(io.Discard)
	r.WriteSummary(io.Discard)
	if r.String() != "{}" {
		t.Fatalf("nil registry expvar = %q", r.String())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", L("status", "ok"))
	c.Inc()
	c.Add(4)
	c.Add(-2) // negative deltas dropped: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "requests", L("status", "ok")); again != c {
		t.Fatalf("get-or-create must return the same series")
	}
	other := r.Counter("requests_total", "requests", L("status", "error"))
	if other == c {
		t.Fatalf("different label values must be different series")
	}
	g := r.Gauge("inflight", "in-flight")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistryPanicsOnTypeMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("thing_total", "help")
}

func TestRegistryPanicsOnLabelKeyMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing_total", "help", L("a", "1"))
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with different label keys must panic")
		}
	}()
	r.Counter("thing_total", "help", L("b", "1"))
}

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// exactly on a bound lands in that bound's bucket, one epsilon above lands
// in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{1, 2, 4})
	h.Observe(1)       // bucket le=1
	h.Observe(1.00001) // bucket le=2
	h.Observe(2)       // bucket le=2
	h.Observe(4)       // bucket le=4
	h.Observe(99)      // +Inf bucket
	h.Observe(0)       // le=1
	s := h.snapshot()
	want := []uint64{2, 2, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], n, s)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-(1+1.00001+2+4+99)) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

// TestHistogramQuantiles checks the interpolated estimates on a known
// distribution: 100 observations uniform over (0, 1] against bounds every
// 0.1 must estimate q to within one bucket width.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	bounds := make([]float64, 10)
	for i := range bounds {
		bounds[i] = float64(i+1) / 10
	}
	h := r.Histogram("q_seconds", "help", bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	s := h.snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		if math.Abs(got-q) > 0.1 {
			t.Fatalf("Quantile(%v) = %v, want within 0.1", q, got)
		}
	}
	// Exactly at a bucket boundary the estimate is exact.
	if got := s.Quantile(0.10); math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("Quantile(0.10) = %v, want 0.10", got)
	}
	if got := s.Quantile(1.0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Quantile(1.0) = %v, want 1.0", got)
	}
	if got := s.Mean(); math.Abs(got-0.505) > 1e-9 {
		t.Fatalf("Mean = %v, want 0.505", got)
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("o_seconds", "help", []float64{1, 2})
	h.Observe(50)
	h.Observe(60)
	// Everything is in the +Inf bucket; the estimate degrades to the largest
	// finite bound rather than inventing a number.
	if got := h.snapshot().Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2", got)
	}
	if got := (histogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestConcurrentUpdates hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this pins the lock-free update
// paths, and the final counts must be exact.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Exercise get-or-create concurrently too.
			c := r.Counter("conc_total", "help")
			h := r.Histogram("conc_seconds", "help", LatencyBuckets())
			gauge := r.Gauge("conc_inflight", "help")
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Add(1)
				h.Observe(float64(g*perG+i) * 1e-6)
				gauge.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "help").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("conc_inflight", "help").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	h := r.Histogram("conc_seconds", "help", LatencyBuckets())
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	// The CAS-looped sum must be exact, not approximately right: every
	// observation is a multiple of 1e-6 and float64 carries them all.
	wantSum := 0.0
	for i := 0; i < goroutines*perG; i++ {
		wantSum += float64(i) * 1e-6
	}
	if got := h.snapshot().Sum; math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestPrometheusGolden pins the text exposition format end to end.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sb_ops_total", "operations served", L("kind", "write")).Add(3)
	r.Counter("sb_ops_total", "operations served", L("kind", "read")).Add(1)
	r.Gauge("sb_inflight", "in-flight frames").Set(2)
	h := r.Histogram("sb_lat_seconds", "operation latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)
	b := &strings.Builder{}
	r.WritePrometheus(b)
	want := `# HELP sb_ops_total operations served
# TYPE sb_ops_total counter
sb_ops_total{kind="read"} 1
sb_ops_total{kind="write"} 3
# HELP sb_inflight in-flight frames
# TYPE sb_inflight gauge
sb_inflight 2
# HELP sb_lat_seconds operation latency
# TYPE sb_lat_seconds histogram
sb_lat_seconds_bucket{le="0.5"} 1
sb_lat_seconds_bucket{le="1"} 2
sb_lat_seconds_bucket{le="+Inf"} 3
sb_lat_seconds_sum 4
sb_lat_seconds_count 3
`
	if b.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestExpvarGolden pins the JSON shape: families keyed by name, histogram
// series carrying count/sum/quantiles.
func TestExpvarGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sb_ops_total", "ops", L("kind", "write")).Add(2)
	h := r.Histogram("sb_lat_seconds", "latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	var doc map[string][]map[string]any
	if err := json.Unmarshal([]byte(r.String()), &doc); err != nil {
		t.Fatalf("expvar JSON does not parse: %v", err)
	}
	ops := doc["sb_ops_total"]
	if len(ops) != 1 || ops[0]["value"].(float64) != 2 {
		t.Fatalf("counter series: %+v", ops)
	}
	if ops[0]["labels"].(map[string]any)["kind"] != "write" {
		t.Fatalf("counter labels: %+v", ops)
	}
	lat := doc["sb_lat_seconds"]
	if len(lat) != 1 || lat[0]["count"].(float64) != 2 || lat[0]["sum"].(float64) != 2 {
		t.Fatalf("histogram series: %+v", lat)
	}
	if lat[0]["p50"].(float64) <= 0 {
		t.Fatalf("histogram p50 missing: %+v", lat)
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("sb_redials_total", "redials").Inc()
	r.Counter("sb_silent_total", "never incremented")
	h := r.Histogram("sb_lat_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.002)
	r.Histogram("sb_empty_seconds", "empty", []float64{1})
	b := &strings.Builder{}
	r.WriteSummary(b)
	out := b.String()
	if !strings.Contains(out, "sb_lat_seconds") || !strings.Contains(out, "p99=") {
		t.Fatalf("summary missing histogram digest:\n%s", out)
	}
	if !strings.Contains(out, "sb_redials_total") {
		t.Fatalf("summary missing non-zero counter:\n%s", out)
	}
	if strings.Contains(out, "sb_empty_seconds") || strings.Contains(out, "sb_silent_total") {
		t.Fatalf("summary must omit empty series:\n%s", out)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sb_e2e_total", "end-to-end counter").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if got := get("/metrics"); !strings.Contains(got, "sb_e2e_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", got)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "memstats") {
		t.Fatalf("/debug/vars not expvar-shaped:\n%.200s", vars)
	}
	// The registry published under "spacebounds" must appear — this process
	// may have published an earlier registry under the shared global name, so
	// assert the key exists rather than this exact registry's content.
	if !strings.Contains(vars, `"spacebounds"`) {
		t.Fatalf("/debug/vars missing the published registry:\n%.200s", vars)
	}
}

// TestHotPathAllocations pins goal #2 of the package: observation never
// allocates, so instrumentation can sit on the per-RMW hot path.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "help")
	g := r.Gauge("alloc_gauge", "help")
	h := r.Histogram("alloc_seconds", "help", LatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", n)
	}
	// Disabled (nil) metrics must also be allocation-free.
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilC.Inc(); nilH.Observe(1) }); n != 0 {
		t.Fatalf("disabled metrics allocate %v per op", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "help", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}
