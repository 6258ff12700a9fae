package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, // not even the median has ten samples beyond it
		{20, 50},
		{100, 90},
		{199, 90},
		{200, 95},
		{1000, 99},
		{10000, 99.9},
		{2_000_000, 99.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// percentile is the exact nearest-rank percentile of a sorted sample: the
// reference the histogram is checked against.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 100}, {90, 90}, {1, 10}, {100, 100}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	var h hist
	for _, v := range s {
		h.add(v)
	}
	for _, p := range []float64{50, 90, 95, 100} {
		if got, want := h.percentile(p), float64(percentile(s, p)); math.Abs(got-want) > 0.5 {
			t.Errorf("histogram p%v = %v, exact %v", p, got, want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != 2.625 {
		t.Errorf("spread = %v, want 2.625", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 100} // [100, 200)
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{110, 20}, {150, 30}}, 50},
		{"overlapping children count once", []interval{{110, 20}, {125, 10}}, 75},
		{"out of order", []interval{{150, 30}, {110, 20}}, 50},
		{"child sticking out past the end is clipped", []interval{{190, 50}}, 90},
		{"child before the start is clipped", []interval{{50, 60}}, 90},
		{"child outside covers nothing", []interval{{300, 10}}, 100},
		{"child covering everything", []interval{{0, 1000}}, 0},
	} {
		if got := selfNs(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerTotals(t *testing.T) {
	tr := newTracer(2)
	// Client 1: a write with three rounds, then a read with one.
	tr.clients[1].ops = []opSpan{{interval{0, 100}, false}, {interval{200, 50}, true}}
	tr.clients[1].rounds = []roundSpan{
		{interval{5, 20}, 0, 4, false}, {interval{30, 20}, 0, 4, false}, {interval{60, 30}, 0, 4, true},
		{interval{210, 30}, 1, 4, false},
	}
	// Client 2: a read whose round sticks out of the op by 10.
	tr.clients[2].ops = []opSpan{{interval{0, 40}, true}}
	tr.clients[2].rounds = []roundSpan{{interval{10, 40}, 0, 8, false}}
	tt := tr.totals()
	if tt.ops != 3 || tt.writeOps != 1 || tt.readOps != 2 || tt.rounds != 5 || tt.writeRounds != 3 || tt.readRounds != 2 {
		t.Errorf("counts: %+v", tt)
	}
	if tt.failedRounds != 1 || tt.targets != 24 {
		t.Errorf("failedRounds=%d targets=%d, want 1 and 24", tt.failedRounds, tt.targets)
	}
	if tt.opNs != 190 || tt.roundNs != 140 {
		t.Errorf("opNs=%d roundNs=%d, want 190 and 140", tt.opNs, tt.roundNs)
	}
	// Op self times: 100-70, 50-30, 40-30 (the round's last 10 lie outside).
	if tt.opSelf != 60 {
		t.Errorf("opSelf = %d, want 60", tt.opSelf)
	}
	if tt.selfNs != 200 {
		t.Errorf("selfNs = %d, want 200 (ops' 190 plus the 10 outside)", tt.selfNs)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	type op struct {
		read bool
		key  int
	}
	draw := func(w workload, seed int64, client int) []op {
		g := newOpGen(w, seed, client)
		ops := make([]op, 2000)
		for i := range ops {
			ops[i].read, ops[i].key = g.next()
		}
		return ops
	}
	for _, w := range workloads {
		a, b := draw(w, 7, 1), draw(w, 7, 1)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed and client gave two different op sequences", w.name)
		}
		if slices.Equal(a, draw(w, 8, 1)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
		if slices.Equal(a, draw(w, 7, 2)) {
			t.Errorf("%s: clients 1 and 2 gave the same op sequence", w.name)
		}
		reads := 0
		for _, o := range a {
			if o.key < 0 || o.key >= w.keys {
				t.Fatalf("%s: key %d out of range", w.name, o.key)
			}
			if o.read {
				reads++
			}
		}
		if share := float64(reads) / float64(len(a)); math.Abs(share-w.readFrac) > 0.05 {
			t.Errorf("%s: read share %.3f, want about %.2f", w.name, share, w.readFrac)
		}
		pa, pb := newPayloads(w, 7), newPayloads(w, 7)
		if !bytes.Equal(pa.templates[1], pb.templates[1]) {
			t.Errorf("%s: the same seed gave two different payload templates", w.name)
		}
		if bytes.Equal(pa.templates[1], newPayloads(w, 8).templates[1]) {
			t.Errorf("%s: seeds 7 and 8 gave the same payload template", w.name)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	w := workloads[0]
	p := newPayloads(w, 1)
	buf := make([]byte, w.valueSize)
	good := slices.Clone(p.next(2, buf))
	if err := p.check(good); err != nil {
		t.Errorf("a value just written fails the check: %v", err)
	}
	if err := p.check(make([]byte, w.valueSize)); err != nil {
		t.Errorf("the initial value fails the check: %v", err)
	}
	for name, mutate := range map[string]func(v []byte) []byte{
		"short":           func(v []byte) []byte { return v[:len(v)-1] },
		"unknown client":  func(v []byte) []byte { v[7] = 99; return v },
		"unissued seq":    func(v []byte) []byte { v[15] = 2; return v },
		"corrupted body":  func(v []byte) []byte { v[len(v)-1] ^= 1; return v },
		"other's body":    func(v []byte) []byte { v[7] = 1; p.issued[1].Store(1); return v },
		"stamped initial": func(v []byte) []byte { z := make([]byte, len(v)); z[15] = 1; return z },
	} {
		if err := p.check(mutate(slices.Clone(good))); err == nil {
			t.Errorf("%s: a wrong value passed the check", name)
		}
	}
}

func TestWorkloadConstants(t *testing.T) {
	want := map[string][2]float64{ // quiescent, bound
		"tcp-small":      {2, 6},
		"tcp-large":      {2, 6},
		"tcp-durable":    {2, 6},
		"inproc-batched": {3, 12},
	}
	for _, w := range workloads {
		if got := [2]float64{w.quiescentX(), w.storageBoundX()}; got != want[w.name] {
			t.Errorf("%s: quiescent, bound = %v, want %v", w.name, got, want[w.name])
		}
		if perNode := (w.n() + tcpNodes - 1) / tcpNodes; w.tcp && perNode > w.f {
			t.Errorf("%s: n=%d puts %d objects of a shard on one of %d nodes, more than f=%d", w.name, w.n(), perNode, tcpNodes, w.f)
		}
	}
}

func loadTestSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if root != ".." {
		t.Fatalf("BENCHMARK.json found in %q, want the parent directory", root)
	}
	return spec
}

// TestBenchmarkJSONSync checks the names BENCHMARK.json lists against the
// names the program has, both ways; TestSmoke does the same for the metrics.
func TestBenchmarkJSONSync(t *testing.T) {
	spec := loadTestSpec(t)
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", w.Name)
		}
	}
	for _, w := range workloads {
		if !slices.Contains(listed, w.name) {
			t.Errorf("the program has workload %q, which BENCHMARK.json does not list", w.name)
		}
	}
	if !slices.Contains(spec.Paths, "bench") {
		t.Errorf("paths = %v, want bench among them", spec.Paths)
	}
	var setup *metricDef
	largest := 0.0
	for i, d := range spec.EndToEnd {
		largest = max(largest, d.Bound)
		if d.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound (%v): %+v", largest, setup)
	}
}

func smokeConfig(t *testing.T, w workload, traced bool) runConfig {
	return runConfig{
		w: w, seed: 3, seconds: 0.3, traced: traced, walDir: t.TempDir(), root: "..", log: io.Discard,
		warmup: 100 * time.Millisecond, setupReps: 2, verifyOps: 400, verifyFor: 300 * time.Millisecond,
	}
}

// TestSmoke runs every workload briefly, untraced and traced: every check
// must pass, and the metrics measured must be exactly the ones BENCHMARK.json
// defines for that kind of run.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	defer func(d time.Duration) { isoFor = d }(isoFor)
	isoFor = 5 * time.Millisecond
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, w, traced)
				if traced {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.failures {
					t.Errorf("check failed: %s", f)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("attempted=%d failed=%d", res.attempted, res.failed)
				}
				line, err := buildLine(res, spec.defs(traced))
				if err != nil {
					t.Fatal(err)
				}
				for n, m := range line.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", n, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
				if left, _ := os.ReadDir(cfg.walDir); len(left) != 0 {
					t.Errorf("run left %d entries behind in the WAL directory", len(left))
				}
				if !traced {
					if got := line.Metrics["storage_quiescent_x"].Value; got != w.quiescentX() {
						t.Errorf("storage_quiescent_x = %v, want %v", got, w.quiescentX())
					}
					return
				}
				checkLayerSplit(t, w, line)
				checkSpanFile(t, cfg.traceOut)
			})
		}
	}
}

// checkLayerSplit checks that a layer's in-situ numbers appear exactly on the
// workloads whose path goes through it.
func checkLayerSplit(t *testing.T, w workload, line *resultLine) {
	t.Helper()
	v := func(name string) float64 { return line.Metrics[name].Value }
	if got := v("wal.records_per_write") > 0; got != w.wal {
		t.Errorf("wal.records_per_write = %v on a workload with wal=%v", v("wal.records_per_write"), w.wal)
	}
	if got := v("wal.replay_records") > 0; got != w.wal {
		t.Errorf("wal.replay_records = %v on a workload with wal=%v", v("wal.replay_records"), w.wal)
	}
	if got := v("transport.rounds") > 0; got != w.tcp {
		t.Errorf("transport.rounds = %v on a workload with tcp=%v", v("transport.rounds"), w.tcp)
	}
	if got := v("transport.pair_rtt_p50_us") > 0; got != w.tcp {
		t.Errorf("transport.pair_rtt_p50_us = %v on a workload with tcp=%v", v("transport.pair_rtt_p50_us"), w.tcp)
	}
	if w.tcp {
		if v("register.rounds_per_write") != 3 || v("register.rounds_per_read") < 1 {
			t.Errorf("rounds per write, read = %v, %v; want 3 and at least 1", v("register.rounds_per_write"), v("register.rounds_per_read"))
		}
		// The code seam is gated by time, the op spans by op, so writes in
		// flight when a slice turns over make the ratio inexact.
		if want := float64(w.n()); math.Round(v("erasure.encode_calls_per_write")) != want {
			t.Errorf("erasure.encode_calls_per_write = %v, want about n = %v", v("erasure.encode_calls_per_write"), want)
		}
		if v("shard.ops_per_round") != 1 {
			t.Errorf("shard.ops_per_round = %v on an unbatched workload", v("shard.ops_per_round"))
		}
	}
	if v("transport.round_errors") != 0 {
		t.Errorf("transport.round_errors = %v", v("transport.round_errors"))
	}
}

// checkSpanFile checks that every round span in the file names an op span of
// the file as its parent and lies in a well-formed line.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	rounds, aggregated := 0, 0
	for i, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var sp struct {
			ID, Parent, Name string
			Aggregated       bool
		}
		if err := json.Unmarshal([]byte(ln), &sp); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		switch {
		case sp.Aggregated:
			aggregated++
		case sp.Name == "op":
			ops[sp.ID] = true
		case sp.Name == "round":
			rounds++
			if !ops[sp.Parent] {
				t.Errorf("line %d: round %s has no op parent (%q)", i+1, sp.ID, sp.Parent)
			}
		}
	}
	if len(ops) == 0 || aggregated != 3 {
		t.Errorf("span file has %d ops, %d rounds, %d aggregated seams", len(ops), rounds, aggregated)
	}
}

func TestVerdictAndWorsening(t *testing.T) {
	for _, tc := range []struct {
		spread, bound float64
		want          string
	}{{0.01, 0.10, "steady"}, {0.05, 0.10, "within"}, {0.11, 0.10, "unresolved"}, {0.5, 0, ""}} {
		if got := verdict(tc.spread, tc.bound); got != tc.want {
			t.Errorf("verdict(%v, %v) = %q, want %q", tc.spread, tc.bound, got, tc.want)
		}
	}
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worsening(lower, 100, 120); got != 0.2 {
		t.Errorf("lower-is-better 100→120: %v, want 0.2", got)
	}
	if got := worsening(higher, 100, 80); got != 0.2 {
		t.Errorf("higher-is-better 100→80: %v, want 0.2", got)
	}
	if got := worsening(higher, 100, 120); got != -0.2 {
		t.Errorf("higher-is-better 100→120: %v, want -0.2", got)
	}
}

func TestCompareFiles(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricDef{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "write_p95_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	set := func(ops, p95 []float64) string {
		var s resultSet
		for i := range ops {
			s.Runs = append(s.Runs, savedRun{Workload: "tcp-small", Seed: int64(i), resultLine: resultLine{Correct: true, Metrics: map[string]reported{
				"ops_per_s":    {ops[i], "1/s"},
				"write_p95_us": {p95[i], "us"},
			}}})
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set([]float64{1000, 1010, 990, 1005, 995}, []float64{200, 201, 199, 202, 198})
	same := set([]float64{1001, 1011, 991, 1006, 996}, []float64{205, 206, 204, 207, 203})
	slow := set([]float64{800, 810, 790, 805, 795}, []float64{200, 201, 199, 202, 198})
	noisy := set([]float64{500, 1500, 800, 1200, 1000}, []float64{200, 201, 199, 202, 198})

	var out bytes.Buffer
	if err := compareFiles(&out, spec, base, same); err != nil {
		t.Errorf("two like sets: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, slow); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 20%% throughput loss was not reported (err=%v):\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set noisier than the bound must be unresolved, not regressed (err=%v):\n%s", err, out.String())
	}
}

func TestHist(t *testing.T) {
	// Buckets are ordered, contiguous, and hold the values mapped to them.
	next := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo, width := bucketBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if bucketOf(lo) != i || bucketOf(lo+width-1) != i {
			t.Fatalf("bucket %d = [%d, %d) does not hold its own ends", i, lo, lo+width)
		}
		if width > 1 && float64(width)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d is wider than 1/%d of its values", i, histSub)
		}
		next = lo + width
	}
	// Percentiles agree with the exact nearest-rank ones within a bucket's width.
	var h hist
	exact := make([]int64, 0, 50000)
	x := uint64(42)
	for i := 0; i < cap(exact); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(10_000 + x>>40%5_000_000) // 10µs .. 5ms
		exact = append(exact, v)
		h.add(v)
	}
	slices.Sort(exact)
	for _, p := range []float64{50, 95, 99, 99.9} {
		got, want := h.percentile(p), float64(percentile(exact, p))
		if math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("p%v = %v, exact %v", p, got, want)
		}
	}
	var sum hist
	sum.merge(&h)
	sum.merge(&h)
	if sum.n != 2*h.n || math.Abs(sum.percentile(50)-h.percentile(50))/h.percentile(50) > 1.0/histSub {
		t.Errorf("merging a histogram with itself changed its median: n=%d p50=%v vs %v", sum.n, sum.percentile(50), h.percentile(50))
	}
	if (&hist{}).percentile(50) != 0 {
		t.Error("empty histogram must report 0")
	}
	// Scaling moves every percentile by the scale, within two buckets' width.
	for _, scale := range []float64{1, 0.55, 1.3} {
		var scaled hist
		scaled.mergeScaled(&h, scale)
		for _, p := range []float64{50, 95} {
			got, want := scaled.percentile(p), h.percentile(p)*scale
			if scaled.n != h.n || math.Abs(got-want)/want > 2.0/histSub {
				t.Errorf("scaled by %v: n=%d p%v = %v, want %v", scale, scaled.n, p, got, want)
			}
		}
	}
	h.reset()
	if h.n != 0 || h.percentile(50) != 0 {
		t.Error("reset left samples behind")
	}
}

// TestGate: closing returns only once every client is parked, nobody gets
// through a closed gate, and opening lets everybody go on.
func TestGate(t *testing.T) {
	const clients = 4
	g := newGate()
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g.pass()
				ops.Add(1)
				runtime.Gosched()
			}
		}()
	}
	for round := 0; round < 20; round++ {
		g.close(clients)
		before := ops.Load()
		time.Sleep(2 * time.Millisecond)
		if now := ops.Load(); now != before {
			t.Fatalf("round %d: %d ops went through a closed gate", round, now-before)
		}
		g.open()
		for ops.Load() < before+10*clients {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	g.open()
	wg.Wait()
}

// TestGauge: a reading is a plausible clock and port share on whatever box
// this is, and speed combines the two as times add up.
func TestGauge(t *testing.T) {
	g := newGauge()
	if len(g.cores) != runtime.GOMAXPROCS(0) {
		t.Fatalf("gauge has %d cores, GOMAXPROCS is %d", len(g.cores), runtime.GOMAXPROCS(0))
	}
	for range 3 {
		if r := g.read(); !(r.clock > 0.01 && r.clock < 100 && r.ports > 0.01 && r.ports < 100) {
			t.Errorf("gauge read %+v", r)
		}
	}
	for _, tc := range []struct {
		r         reading
		portBound float64
		want      float64
	}{
		{reading{1, 1}, 0.5, 1},
		{reading{0.9, 1}, 0.5, 0.9},     // the clock scales everything
		{reading{1, 0.5}, 1, 0.5},       // port-bound work follows the ports
		{reading{1, 0.5}, 0, 1},         // work that is not port-bound does not
		{reading{1, 0.5}, 0.5, 1 / 1.5}, // half the time doubles
		{reading{0.9, 0.5}, 0.5, 0.6},
	} {
		if got := tc.r.speed(tc.portBound); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%+v.speed(%v) = %v, want %v", tc.r, tc.portBound, got, tc.want)
		}
	}
	if m := meanReading(reading{1, 0.5}, reading{0.8, 1}); math.Abs(m.clock-0.9) > 1e-12 || math.Abs(m.ports-0.75) > 1e-12 {
		t.Errorf("meanReading = %+v", m)
	}
}

// TestSliceSum: a slice at half speed counts half its wall time, half its CPU
// time and half of every latency, and the clients start the next slice empty.
func TestSliceSum(t *testing.T) {
	cs := []*client{{id: 1}, {id: 2}}
	var s sliceSum
	for _, ports := range []float64{1, 0.5} {
		for _, c := range cs {
			for range 100 {
				c.writes.add(2_000_000)
				c.reads.add(400_000)
			}
		}
		s.add(cs, 100*time.Millisecond, 160*time.Millisecond, reading{clock: 1, ports: ports}, 1)
	}
	if s.n != 2 || s.refTime != 150*time.Millisecond || s.refCPU != 240*time.Millisecond || s.cpu != 320*time.Millisecond {
		t.Errorf("n=%d refTime=%v refCPU=%v cpu=%v", s.n, s.refTime, s.refCPU, s.cpu)
	}
	if s.slowest != 0.5 || s.fastest != 1 || s.clock != 2 || s.ports != 1.5 {
		t.Errorf("slowest=%v fastest=%v clock=%v ports=%v", s.slowest, s.fastest, s.clock, s.ports)
	}
	near := func(got, want float64) bool { return math.Abs(got-want)/want < 2.0/histSub }
	if s.writes.n != 400 || !near(s.writes.percentile(25), 1_000_000) || !near(s.writes.percentile(75), 2_000_000) || !near(s.rawWrites.percentile(25), 2_000_000) {
		t.Errorf("writes: n=%d p25=%v p75=%v raw p25=%v", s.writes.n, s.writes.percentile(25), s.writes.percentile(75), s.rawWrites.percentile(25))
	}
	if s.reads.n != 400 || !near(s.reads.percentile(25), 200_000) || !near(s.reads.percentile(75), 400_000) {
		t.Errorf("reads: n=%d p25=%v p75=%v", s.reads.n, s.reads.percentile(25), s.reads.percentile(75))
	}
	for _, c := range cs {
		if c.writes.n != 0 || c.reads.n != 0 {
			t.Errorf("client %d still holds %d+%d samples", c.id, c.writes.n, c.reads.n)
		}
	}
}
