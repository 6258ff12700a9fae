package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spacebounds/internal/history"
	"spacebounds/internal/value"
)

// Phases of a run. Clients run the same closed loop through all of them and
// only what they keep differs.
const (
	phaseWarm  int32 = iota // untimed
	phaseRef                // traced runs only: ops counted with the decorators passing through
	phaseTimed              // measured
	phaseStop
)

// heapBallast is a pointer-free allocation every run holds from start to end:
// the stand-in for the data a real process keeps resident. The workloads'
// own live heap is a few MB (2-8 registers), against which they allocate
// 24 KB-5.7 MB per op, and with Go's collector paced by the live heap that
// meant a collection every op or two: throughput halved, and it moved by
// 15-30 % between runs with the collector's footing (inproc-batched: 43k
// ops/s at a spread of 33 % without the ballast, 77k at 7 % with it). The
// ballast is never written, so it is not resident and costs no marking.
const heapBallast = 64 << 20

// sliceFor is how long a traced run stays in one mode before it switches
// between reference slices (decorators passing through) and traced ones.
const sliceFor = time.Second

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	// walDir, when set, is where WAL directories are made; default is
	// .bench_build under the checkout root.
	walDir string
	// traceOut, when set, receives the traced run's span file.
	traceOut string
	root     string
	log      io.Writer

	warmup    time.Duration
	setupReps int
	verifyOps int
	verifyFor time.Duration
}

func (c *runConfig) defaults() {
	if c.warmup == 0 {
		c.warmup = 2 * time.Second
	}
	if c.setupReps == 0 {
		c.setupReps = 5
	}
	if c.verifyOps == 0 {
		// History keeps every value, and its checker is quadratic in ops per
		// register (10k ops ≈ 0.5 s): cap both.
		c.verifyOps = min(8000, (32<<20)/c.w.valueSize)
	}
	if c.verifyFor == 0 {
		c.verifyFor = 1500 * time.Millisecond
	}
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int // sample count behind each timing
	failures          []string       // failed checks, each naming workload and check
	walFS             string
}

func (r *result) correct() bool { return len(r.failures) == 0 }

func (r *result) fail(w workload, check string, err error) {
	r.failures = append(r.failures, fmt.Sprintf("%s: %s: %v", w.name, check, err))
}

// client is one closed-loop caller: it waits for each reply before its next
// call.
type client struct {
	id            int
	gen           *opGen
	buf           []byte
	writes, reads hist // latencies of the measured ops, ns; an untraced run empties them after every slice
	refOps        int

	attempted, failed int
	firstErr          error
}

func (c *client) failOp(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// op performs the client's next operation and returns how it went.
func (c *client) op(sys system, pay *payloads) (read bool, got []byte, start time.Time, took time.Duration, err error) {
	read, key := c.gen.next()
	if read {
		got, start, took, err = sys.read(c.id, key)
		return
	}
	start, took, err = sys.write(c.id, key, pay.next(c.id, c.buf))
	return
}

func (c *client) loop(sys system, pay *payloads, tr *tracer, phase *atomic.Int32, between *gate) {
	for {
		between.pass()
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		traced := tr != nil && ph == phaseTimed
		if traced {
			tr.beginOp(c.id)
		}
		read, got, start, took, err := c.op(sys, pay)
		if traced {
			tr.endOp(c.id, start, took, read)
		}
		if err == nil && read {
			err = pay.check(got)
		}
		switch {
		case err != nil:
			c.attempted++
			c.failOp(err)
		case ph != phase.Load():
			// The op straddled a phase boundary: it belongs to neither side.
		case ph == phaseRef:
			c.refOps++
		case ph == phaseTimed:
			c.attempted++
			if read {
				c.reads.add(int64(took))
			} else {
				c.writes.add(int64(took))
			}
		}
	}
}

// sliceSum adds up an untraced run's timed window, slice by slice, each at the
// speed the gauge read around it.
type sliceSum struct {
	n                   int
	writes, reads       hist          // latencies in reference-speed time, ns
	rawWrites, rawReads hist          // the same as the clock read them
	refTime, refCPU     time.Duration // wall and CPU time in reference-speed time
	cpu                 time.Duration // CPU time as the clock read it
	slowest, fastest    float64
	clock, ports        float64 // sums over the slices of what the gauge read
}

// add folds in the slice the parked clients have just finished and empties
// their histograms for the next one.
func (s *sliceSum) add(clients []*client, took, cpu time.Duration, r reading, portBound float64) {
	speed := r.speed(portBound)
	s.clock += r.clock
	s.ports += r.ports
	for _, c := range clients {
		s.writes.mergeScaled(&c.writes, speed)
		s.reads.mergeScaled(&c.reads, speed)
		s.rawWrites.merge(&c.writes)
		s.rawReads.merge(&c.reads)
		c.writes.reset()
		c.reads.reset()
	}
	s.refTime += time.Duration(float64(took) * speed)
	s.refCPU += time.Duration(float64(cpu) * speed)
	s.cpu += cpu
	if s.n == 0 || speed < s.slowest {
		s.slowest = speed
	}
	s.fastest = max(s.fastest, speed)
	s.n++
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is the process's allocation counters at one instant.
type usage struct {
	mallocs uint64
	bytes   uint64
}

func takeUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// open builds the workload's system; walRoot is used only when it journals.
func open(w workload, walRoot string, tr *tracer) (system, error) {
	if w.tcp {
		return openTCP(w, walRoot, tr)
	}
	return openInproc(w)
}

// shardKeys returns, per shard, one key that routes to it (-1 when none of
// the workload's keys does, in which case the shard is never touched).
func shardKeys(sys system, w workload) []int {
	keys := make([]int, w.shards)
	for s := range keys {
		keys[s] = -1
	}
	for k := w.keys - 1; k >= 0; k-- {
		keys[sys.shardOf(k)] = k
	}
	return keys
}

// readShards reads every touched shard once as client 1, while no client
// runs.
func readShards(sys system, pay *payloads, keys []int) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for s, k := range keys {
		if k < 0 {
			continue
		}
		got, _, _, err := sys.read(1, k)
		if err == nil {
			err = pay.check(got)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		out[s] = got
	}
	return out, nil
}

// settle polls storage until it has not changed for 200 ms (rounds return at
// a quorum; the stragglers' RMWs still land afterwards), for at most 2 s.
func settle(ctx context.Context, sys system) (bits int, err error) {
	bits = sys.storageBits()
	stable := time.Now()
	for deadline := stable.Add(2 * time.Second); time.Since(stable) < 200*time.Millisecond && time.Now().Before(deadline); {
		if err := sleepCtx(ctx, 20*time.Millisecond); err != nil {
			return 0, err
		}
		if now := sys.storageBits(); now != bits {
			bits, stable = now, time.Now()
		}
	}
	return bits, nil
}

// verify runs a history-recorded stretch of the same workload and checks
// every register's history for strong regularity. It returns the number of
// ops recorded and what a final read of every shard returned.
func verify(sys system, cfg *runConfig, pay *payloads, clients []*client, keys []int) (ops int, finals [][]byte, err error) {
	v0, err := readShards(sys, pay, keys)
	if err != nil {
		return 0, nil, fmt.Errorf("initial read: %w", err)
	}
	recs := make([]*history.Recorder, cfg.w.shards)
	for s := range recs {
		recs[s] = history.NewRecorder()
	}
	deadline := time.Now().Add(cfg.verifyFor)
	perClient := cfg.verifyOps / len(clients)
	var wg sync.WaitGroup
	done := make([]int, len(clients))
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; done[i] < perClient && time.Now().Before(deadline); done[i]++ {
				read, key := c.gen.next()
				rec := recs[sys.shardOf(key)]
				if read {
					op := rec.BeginRead(c.id)
					got, _, _, err := sys.read(c.id, key)
					if err == nil {
						err = pay.check(got)
					}
					if err != nil {
						errs[i] = err
						return
					}
					rec.EndRead(op, value.FromBytes(got))
					continue
				}
				buf := pay.next(c.id, c.buf)
				op := rec.BeginWrite(c.id, value.FromBytes(buf))
				if _, _, err := sys.write(c.id, key, buf); err != nil {
					errs[i] = err
					return
				}
				rec.EndWrite(op)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, nil, err
	}
	for _, n := range done {
		ops += n
	}
	// One last read per register, inside the checked history: it must return
	// the last write the history allows, and recovery must return it again.
	finals = make([][]byte, len(keys))
	for s, k := range keys {
		if k < 0 {
			continue
		}
		op := recs[s].BeginRead(1)
		got, _, _, err := sys.read(1, k)
		if err == nil {
			err = pay.check(got)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("final read of shard %d: %w", s, err)
		}
		recs[s].EndRead(op, value.FromBytes(got))
		finals[s] = got
		ops++
	}
	for s, k := range keys {
		if k < 0 {
			continue
		}
		if err := history.CheckStrongRegularity(recs[s].History(value.FromBytes(v0[s]))); err != nil {
			return 0, nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return ops, finals, nil
}

// recoveryStats is what reopening the journals cost.
type recoveryStats struct {
	records int
	took    time.Duration
}

// recoverAndRead reopens every node's journal into a fresh cluster, replays,
// serves, dials, and reads every shard: each must return what the last read
// before the shutdown returned.
func recoverAndRead(w workload, walRoot string, pay *payloads, keys []int, finals [][]byte) (recoveryStats, error) {
	var st recoveryStats
	re, err := openTCP(w, walRoot, nil)
	if err != nil {
		return st, fmt.Errorf("reopening: %w", err)
	}
	defer re.close()
	for _, n := range re.nodes {
		st.records += n.replay.Records
		st.took += n.replayTook
	}
	got, err := readShards(re, pay, keys)
	if err != nil {
		return st, err
	}
	for s := range got {
		if !bytes.Equal(got[s], finals[s]) {
			return st, fmt.Errorf("shard %d: recovered value is not the last value read before shutdown", s)
		}
	}
	return st, nil
}

// sampleStorage records the highest storage seen at 100 ms intervals until
// stop is closed.
func sampleStorage(sys system, stop <-chan struct{}, peak *int) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			*peak = max(*peak, sys.storageBits())
		}
	}
}

// run executes one workload once: set-up → warm-up → timed window → settle →
// verify → (recovery) → metrics. It returns an error only when the run could
// not be carried out; failed checks are in the result.
func run(ctx context.Context, cfg runConfig) (_ *result, err error) {
	cfg.defaults()
	w := cfg.w
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)
	res := &result{metrics: map[string]float64{}, samples: map[string]int{}, walFS: "none"}
	m := res.metrics
	pay := newPayloads(w, cfg.seed)

	var tr *tracer
	if cfg.traced {
		// Isolated layer measurements come first, while the process is idle.
		if err := isolated(w, cfg.seed, m); err != nil {
			return nil, fmt.Errorf("isolated measurements: %w", err)
		}
		tr = newTracer(w.clients)
	}

	walParent := cfg.walDir
	if walParent == "" {
		walParent = filepath.Join(cfg.root, ".bench_build")
	}
	var walRoot string
	if w.wal {
		if err := os.MkdirAll(walParent, 0o755); err != nil {
			return nil, err
		}
		if walRoot, err = os.MkdirTemp(walParent, "wal-"+w.name+"-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walRoot)
		res.walFS = fsType(walRoot)
	}

	// Set-up, several times over so that its median is steady; the last one
	// is kept. Each ends with a read of every shard, which is what dials the
	// connections.
	var sys system
	var keys []int
	var liveDir string
	setups := make([]float64, cfg.setupReps)
	for rep := range setups {
		liveDir = filepath.Join(walRoot, fmt.Sprintf("setup-%d", rep))
		start := time.Now()
		if sys, err = open(w, liveDir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		keys = shardKeys(sys, w)
		_, err = readShards(sys, pay, keys)
		setups[rep] = time.Since(start).Seconds()
		if err == nil && rep < len(setups)-1 {
			err = sys.close()
		}
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	closed := false
	defer func() {
		if !closed {
			err = errors.Join(err, sys.close())
		}
	}()

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = &client{id: i + 1, gen: newOpGen(w, cfg.seed, i+1), buf: make([]byte, w.valueSize)}
	}
	var phase atomic.Int32
	between := newGate()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(sys, pay, tr, &phase, between)
		}()
	}
	stopClients := func() {
		phase.Store(phaseStop)
		between.open()
		wg.Wait()
	}

	warmStart := time.Now()
	if err := sleepCtx(ctx, cfg.warmup); err != nil {
		stopClients()
		return nil, err
	}
	warmed := time.Since(warmStart)
	peakBits := 0
	samplerStop := make(chan struct{})
	var sampler sync.WaitGroup
	if cfg.traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			sampleStorage(sys, samplerStop, &peakBits)
		}()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var timedFor, refFor time.Duration
	var sl sliceSum
	var before usage
	if !cfg.traced {
		// Slice by slice, with every client parked and the cores gauged in
		// between; see calib.go.
		between.close(len(clients))
		phase.Store(phaseTimed)
		before = takeUsage()
		g := newGauge()
		last := g.read()
		for timedFor < window && err == nil {
			start, cpu := time.Now(), cpuTime()
			between.open()
			err = sleepCtx(ctx, min(gaugeEvery, window-timedFor))
			between.close(len(clients))
			took, burnt := time.Since(start), cpuTime()-cpu
			next := g.read()
			sl.add(clients, took, burnt, meanReading(last, next), w.portBound)
			timedFor += took
			last = next
		}
	} else {
		before = takeUsage()
		// A traced run alternates reference slices (decorators installed but
		// passing through) with traced ones, so that the two rates it
		// compares saw the same weather.
		pairs := max(1, int(window/(2*sliceFor)))
		slice := window / time.Duration(2*pairs)
		for i := 0; i < 2*pairs && err == nil; i++ {
			start := time.Now()
			if i%2 == 0 {
				phase.Store(phaseRef)
				err = sleepCtx(ctx, slice)
				refFor += time.Since(start)
				continue
			}
			tr.on.Store(true)
			phase.Store(phaseTimed)
			err = sleepCtx(ctx, slice)
			timedFor += time.Since(start)
			tr.on.Store(false)
		}
	}
	phase.Store(phaseStop)
	after := takeUsage()
	stopClients()
	close(samplerStop)
	sampler.Wait()
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	writes, reads := sl.writes, sl.reads
	refOps := 0
	for _, c := range clients {
		writes.merge(&c.writes)
		reads.merge(&c.reads)
		res.attempted += c.attempted
		res.failed += c.failed
		refOps += c.refOps
		if c.firstErr != nil {
			res.fail(w, fmt.Sprintf("client %d operation", c.id), c.firstErr)
		}
	}
	ops := writes.n + reads.n
	if writes.n == 0 || reads.n == 0 {
		return nil, fmt.Errorf("%s: %v measured completed %d writes and %d reads; nothing to report", w.name, timedFor, writes.n, reads.n)
	}

	// Settle, then the paper's measure: storage must be back at (2f+k)/k · D
	// per shard once writes have finished.
	bits, err := settle(ctx, sys)
	if err != nil {
		return nil, err
	}
	userBits := float64(w.shards * w.valueSize * 8)
	quiescent := float64(bits) / userBits
	if quiescent != w.quiescentX() {
		res.fail(w, "quiescent storage", fmt.Errorf("%d bits after settle = %.4f·D per shard, want %.4f·D", bits, quiescent, w.quiescentX()))
	}

	verified, finals, verr := verify(sys, &cfg, pay, clients, keys)
	if verr != nil {
		res.fail(w, "history check", verr)
	}
	fmt.Fprintf(cfg.log, "%s: verify phase: %d ops history-checked for strong regularity\n", w.name, verified)

	var rec recoveryStats
	var durableBytes int64
	if w.wal {
		tcp := sys.(*tcpSystem)
		durableBytes = tcp.durableBytes()
		closed = true
		if err := sys.close(); err != nil {
			return nil, fmt.Errorf("shutdown before recovery: %w", err)
		}
		if verr == nil {
			if rec, err = recoverAndRead(w, liveDir, pay, keys, finals); err != nil {
				res.fail(w, "recovery read-back", err)
			} else {
				fmt.Fprintf(cfg.log, "%s: recovery: %d records replayed, every shard read back its last value\n", w.name, rec.records)
			}
		}
	}

	if !cfg.traced {
		fmt.Fprintf(cfg.log, "%s: %d slices at %.3f of reference speed on average (slowest %.3f, fastest %.3f; clock %.3f, ports %.3f free); as the clock read them: %.1f ops/s, write p50 %.1f us, read p50 %.1f us, %.1f us CPU per op\n",
			w.name, sl.n, sl.refTime.Seconds()/timedFor.Seconds(), sl.slowest, sl.fastest, sl.clock/float64(sl.n), sl.ports/float64(sl.n),
			float64(ops)/timedFor.Seconds(), sl.rawWrites.percentile(50)/1e3, sl.rawReads.percentile(50)/1e3, float64(sl.cpu.Microseconds())/float64(ops))
		m["ops_per_s"] = float64(ops) / sl.refTime.Seconds()
		m["write_p50_us"] = writes.percentile(50) / 1e3
		m["write_p95_us"] = writes.percentile(95) / 1e3
		m["read_p50_us"] = reads.percentile(50) / 1e3
		m["read_p95_us"] = reads.percentile(95) / 1e3
		m["cpu_us_per_op"] = float64(sl.refCPU.Microseconds()) / float64(ops)
		m["allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
		m["alloc_kb_per_op"] = float64(after.bytes-before.bytes) / 1024 / float64(ops)
		m["rss_peak_mb"] = rss
		m["storage_quiescent_x"] = quiescent
		// Process start → first timed op, with the several set-ups counted
		// once at their median: work moved into set-up shows here, and the
		// fixed warm-up keeps millisecond jitter under the bound.
		m["setup_s"] = median(setups) + warmed.Seconds()
		for _, name := range []string{"write_p50_us", "write_p95_us"} {
			res.samples[name] = writes.n
		}
		for _, name := range []string{"read_p50_us", "read_p95_us"} {
			res.samples[name] = reads.n
		}
		return res, nil
	}

	tt := tr.totals()
	windows := float64(w.clients) * timedFor.Seconds() * 1e9 // client-nanoseconds in the window
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	encCalls, encNs := float64(tr.encode.calls.Load()), float64(tr.encode.busyNs.Load())
	decCalls, decNs := float64(tr.decode.calls.Load()), float64(tr.decode.busyNs.Load())
	m["erasure.encode_us"] = ratio(encNs, encCalls) / 1e3
	m["erasure.decode_us"] = ratio(decNs, decCalls) / 1e3
	m["erasure.encode_calls_per_write"] = ratio(encCalls, float64(tt.writeOps))
	m["erasure.decode_calls_per_read"] = ratio(decCalls, float64(tt.readOps))
	m["erasure.busy_share"] = (encNs + decNs) / windows

	m["register.rounds_per_write"] = ratio(float64(tt.writeRounds), float64(tt.writeOps))
	m["register.rounds_per_read"] = ratio(float64(tt.readRounds), float64(tt.readOps))

	m["dsys.rmws_per_op"] = ratio(float64(tt.targets), float64(tt.ops))
	m["dsys.storage_peak_x"] = float64(peakBits) / userBits
	m["dsys.storage_bound_x"] = w.storageBoundX()
	if m["dsys.storage_peak_x"] > w.storageBoundX() {
		res.fail(w, "storage bound", fmt.Errorf("sampled peak %.3f·D per shard exceeds the bound %.3f·D", m["dsys.storage_peak_x"], w.storageBoundX()))
	}

	m["transport.round_p50_us"] = tt.roundTook.percentile(50) / 1e3
	m["transport.round_p99_us"] = tt.roundTook.percentile(99) / 1e3
	m["transport.rounds"] = float64(tt.rounds)
	m["transport.round_errors"] = float64(tt.failedRounds)
	m["transport.round_share"] = ratio(float64(tt.roundNs), float64(tt.opNs))

	walTook, walBusy := tr.walTotals()
	m["wal.record_apply_p50_us"] = walTook.percentile(50) / 1e3
	m["wal.record_apply_p99_us"] = walTook.percentile(99) / 1e3
	m["wal.records_per_write"] = ratio(float64(walTook.n), float64(tt.writeOps))
	m["wal.busy_share"] = float64(walBusy) / (tcpNodes * timedFor.Seconds() * 1e9)
	m["wal.fsyncs_per_write"], m["wal.snapshots"] = 0, 0
	if w.wal {
		// The journals' own counters cover the whole process lifetime (every
		// set-up repetition, warm-up and verify included), so they are
		// related to every write issued, not to the window's.
		issued := 0.0
		for c := range pay.issued {
			issued += float64(pay.issued[c].Load())
		}
		m["wal.fsyncs_per_write"] = ratio(float64(tr.walReg.Counter("spacebounds_wal_fsyncs_total", "").Value()), issued)
		m["wal.snapshots"] = float64(tr.walReg.Counter("spacebounds_wal_snapshots_total", "").Value())
	}
	m["wal.durable_bits_per_user_bit"] = float64(durableBytes*8) / userBits
	m["wal.replay_records"] = float64(rec.records)
	m["wal.replay_us_per_record"] = ratio(float64(rec.took.Microseconds()), float64(rec.records))

	batchedOps, batchRounds := sys.batchStats()
	m["shard.ops_per_round"] = 1
	if batchRounds > 0 {
		m["shard.ops_per_round"] = float64(batchedOps) / float64(batchRounds)
	}
	// What is left of an op once its rounds and the coding are taken out:
	// facade, router, batch wait, protocol logic.
	m["shard.self_us_per_op"] = ratio(float64(tt.opSelf)-encNs-decNs, float64(tt.ops)) / 1e3
	all := writes
	all.merge(&reads)
	tail := tailPercentile(all.n)
	m["shard.op_p99_us"] = all.percentile(99) / 1e3
	m["shard.op_p999_us"] = all.percentile(99.9) / 1e3
	m["shard.op_tail_pct"] = tail
	m["shard.op_tail_us"] = all.percentile(tail) / 1e3

	tracedRate, refRate := float64(ops)/timedFor.Seconds(), float64(refOps)/refFor.Seconds()
	m["bench.trace_overhead_pct"] = (1 - ratio(tracedRate, refRate)) * 100
	m["bench.samples_write"], m["bench.samples_read"] = float64(writes.n), float64(reads.n)

	if n := tr.orphanRounds.Load(); n > 0 {
		res.fail(w, "span tree", fmt.Errorf("%d rounds ran under a client ID with no op span", n))
	}
	if diff := float64(tt.selfNs-tt.opNs) / float64(tt.opNs); diff > 0.01 || diff < -0.01 {
		res.fail(w, "span tree", fmt.Errorf("self times sum to %d ns but ops to %d ns", tt.selfNs, tt.opNs))
	}
	if cfg.traceOut != "" {
		if err := tr.writeSpans(cfg.traceOut, w.name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}
