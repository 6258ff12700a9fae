package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/metrics"
	"spacebounds/internal/register"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer, through three seams the program already has:
// dsys.RoundInvoker, dsys.Journal and register.Config.Code. The program's own
// trace.Tracer is deliberately not used (ROADMAP 4c: it leaves orphan spans).
//
// Span model: an "op" span around each timed WriteValue/ReadValue call; a
// "round" span per quorum round, whose parent is the op its client ID has in
// flight (rounds run synchronously on the caller's goroutine). The code and
// journal seams carry no caller identity, so encode/decode and record_apply
// are aggregated per process as call counts and busy time.

// interval is a span's extent in nanoseconds since the tracer's epoch.
type interval struct{ start, dur int64 }

type opSpan struct {
	interval
	read bool
}

type roundSpan struct {
	interval
	op      int // index of the parent op in the same client's ops
	targets int
	failed  bool
}

// clientTrace holds one client's spans. Only that client's goroutine touches
// it while the clients run, so it needs no lock.
type clientTrace struct {
	ops    []opSpan
	rounds []roundSpan
	// cur is the index the op in flight will get in ops, or -1 while the
	// client's calls are not being traced (warm-up, reference window,
	// harness reads).
	cur int
	_   [64]byte // keep neighbouring clients off one cache line
}

// callStats aggregates one seam's calls.
type callStats struct {
	calls, busyNs atomic.Int64
}

func (c *callStats) observe(start time.Time) {
	c.calls.Add(1)
	c.busyNs.Add(int64(time.Since(start)))
}

// walTrace holds one node's record_apply durations; applies on different
// objects of a node run concurrently, hence the lock.
type walTrace struct {
	mu     sync.Mutex
	took   hist
	busyNs int64
}

type tracer struct {
	epoch time.Time
	// on gates the code and journal decorators to the traced window.
	on      atomic.Bool
	clients []clientTrace // index = client ID
	// orphanRounds counts rounds issued under a client ID the harness does
	// not own (a batcher lane): they have no op to parent under.
	orphanRounds   atomic.Int64
	encode, decode callStats
	wal            []walTrace // index = node
	// walReg receives the journals' own spacebounds_wal_* families.
	walReg *metrics.Registry
}

func newTracer(clients int) *tracer {
	t := &tracer{
		epoch:   time.Now(),
		clients: make([]clientTrace, clients+1),
		wal:     make([]walTrace, tcpNodes),
		walReg:  metrics.NewRegistry(),
	}
	for i := range t.clients {
		t.clients[i].cur = -1
	}
	return t
}

// beginOp marks that client's next call is a traced op.
func (t *tracer) beginOp(client int) {
	ct := &t.clients[client]
	ct.cur = len(ct.ops)
}

// endOp records the op span and stops attributing rounds to it.
func (t *tracer) endOp(client int, start time.Time, took time.Duration, read bool) {
	ct := &t.clients[client]
	ct.ops = append(ct.ops, opSpan{interval{int64(start.Sub(t.epoch)), int64(took)}, read})
	ct.cur = -1
}

type tracedInvoker struct {
	inner dsys.RoundInvoker
	t     *tracer
}

func (t *tracer) invoker(inner dsys.RoundInvoker) dsys.RoundInvoker {
	return &tracedInvoker{inner: inner, t: t}
}

func (i *tracedInvoker) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	if client < 1 || client >= len(i.t.clients) {
		i.t.orphanRounds.Add(1)
		return i.inner.InvokeRound(ctx, client, targets, makeRMW, quorum)
	}
	ct := &i.t.clients[client]
	if ct.cur < 0 {
		return i.inner.InvokeRound(ctx, client, targets, makeRMW, quorum)
	}
	start := time.Now()
	resp, err := i.inner.InvokeRound(ctx, client, targets, makeRMW, quorum)
	took := time.Since(start)
	ct.rounds = append(ct.rounds, roundSpan{
		interval: interval{int64(start.Sub(i.t.epoch)), int64(took)},
		op:       ct.cur, targets: len(targets), failed: err != nil,
	})
	return resp, err
}

type tracedCode struct {
	erasure.Code
	t *tracer
}

func (t *tracer) code(inner erasure.Code) erasure.Code { return &tracedCode{Code: inner, t: t} }

func (c *tracedCode) Encode(data []byte) ([]erasure.Block, error) {
	if !c.t.on.Load() {
		return c.Code.Encode(data)
	}
	defer c.t.encode.observe(time.Now())
	return c.Code.Encode(data)
}

func (c *tracedCode) EncodeBlock(data []byte, index int) (erasure.Block, error) {
	if !c.t.on.Load() {
		return c.Code.EncodeBlock(data, index)
	}
	defer c.t.encode.observe(time.Now())
	return c.Code.EncodeBlock(data, index)
}

func (c *tracedCode) Decode(dataLen int, blocks []erasure.Block) ([]byte, error) {
	if !c.t.on.Load() {
		return c.Code.Decode(dataLen, blocks)
	}
	defer c.t.decode.observe(time.Now())
	return c.Code.Decode(dataLen, blocks)
}

type tracedJournal struct {
	dsys.Journal
	t    *tracer
	node int
}

func (t *tracer) journal(node int, inner dsys.Journal) dsys.Journal {
	return &tracedJournal{Journal: inner, t: t, node: node}
}

// RecordApply times the journal's handling of mutating RMWs only: read-only
// kinds return before anything is encoded or written, and would halve the
// median if they were counted as records.
func (j *tracedJournal) RecordApply(object int, rmw dsys.RMW) {
	if !j.t.on.Load() || readOnly(rmw) {
		j.Journal.RecordApply(object, rmw)
		return
	}
	start := time.Now()
	j.Journal.RecordApply(object, rmw)
	took := int64(time.Since(start))
	w := &j.t.wal[j.node]
	w.mu.Lock()
	w.took.add(took)
	w.busyNs += took
	w.mu.Unlock()
}

func readOnly(rmw dsys.RMW) bool {
	kind, _ := register.KindOf(rmw)
	return register.KindReadOnly(kind)
}

// selfNs is a span's self time: its duration minus the part of its interval
// that its children cover (children may overlap each other or stick out).
func selfNs(parent interval, children []interval) int64 {
	end := parent.start + parent.dur
	sorted := slices.Clone(children)
	slices.SortFunc(sorted, func(a, b interval) int { return int(a.start - b.start) })
	covered, upto := int64(0), parent.start
	for _, c := range sorted {
		lo, hi := max(c.start, upto), min(c.start+c.dur, end)
		if hi > lo {
			covered += hi - lo
			upto = hi
		}
	}
	return parent.dur - covered
}

// traceTotals is what the span tree adds up to.
type traceTotals struct {
	ops, rounds       int
	writeOps, readOps int
	writeRounds       int
	readRounds        int
	failedRounds      int
	targets           int
	opNs, roundNs     int64
	// selfNs sums self times over every span (ops minus their rounds, plus
	// the rounds themselves); it equals opNs exactly when every round lies
	// inside its parent op and rounds of one op do not overlap.
	selfNs    int64
	opSelf    int64 // Σ self time of op spans alone
	roundTook hist  // every round's duration
}

func (t *tracer) totals() traceTotals {
	var tt traceTotals
	var children []interval // the rounds of the op at hand
	for c := range t.clients {
		ct := &t.clients[c]
		next := 0 // rounds are appended in op order
		for i, op := range ct.ops {
			children = children[:0]
			for ; next < len(ct.rounds) && ct.rounds[next].op == i; next++ {
				r := ct.rounds[next]
				children = append(children, r.interval)
				tt.rounds++
				tt.targets += r.targets
				tt.roundNs += r.dur
				tt.roundTook.add(r.dur)
				if r.failed {
					tt.failedRounds++
				}
				if op.read {
					tt.readRounds++
				} else {
					tt.writeRounds++
				}
			}
			tt.ops++
			if op.read {
				tt.readOps++
			} else {
				tt.writeOps++
			}
			tt.opNs += op.dur
			tt.opSelf += selfNs(op.interval, children)
		}
	}
	tt.selfNs = tt.opSelf + tt.roundNs
	return tt
}

// walTotals merges the nodes' record_apply durations.
func (t *tracer) walTotals() (took hist, busyNs int64) {
	for i := range t.wal {
		took.merge(&t.wal[i].took)
		busyNs += t.wal[i].busyNs
	}
	return took, busyNs
}

// maxOpsOut caps the ops per client written to the span file; every total in
// the result is still computed over all spans.
const maxOpsOut = 5000

// writeSpans writes the span tree as JSON lines: a header, then every kept op
// span followed by its round spans, then the aggregated seams.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns since trace start\",\"max_ops_per_client\":%d}\n", workload, maxOpsOut)
	for c := range t.clients {
		ct := &t.clients[c]
		next := 0 // rounds are appended in op order
		for i, op := range ct.ops {
			if i == maxOpsOut {
				break
			}
			kind := "write"
			if op.read {
				kind = "read"
			}
			opID := fmt.Sprintf("c%d.op%d", c, i)
			fmt.Fprintf(w, "{\"id\":%q,\"parent\":\"\",\"name\":\"op\",\"kind\":%q,\"client\":%d,\"start\":%d,\"dur\":%d}\n",
				opID, kind, c, op.start, op.dur)
			for n := 0; next < len(ct.rounds) && ct.rounds[next].op == i; next, n = next+1, n+1 {
				r := ct.rounds[next]
				fmt.Fprintf(w, "{\"id\":\"%s.r%d\",\"parent\":%q,\"name\":\"round\",\"client\":%d,\"targets\":%d,\"failed\":%t,\"start\":%d,\"dur\":%d}\n",
					opID, n, opID, c, r.targets, r.failed, r.start, r.dur)
			}
		}
	}
	wal, walBusy := t.walTotals()
	for _, agg := range []struct {
		name        string
		calls, busy int64
	}{
		{"encode", t.encode.calls.Load(), t.encode.busyNs.Load()},
		{"decode", t.decode.calls.Load(), t.decode.busyNs.Load()},
		{"record_apply", int64(wal.n), walBusy},
	} {
		fmt.Fprintf(w, "{\"name\":%q,\"aggregated\":true,\"calls\":%d,\"busy_ns\":%d}\n", agg.name, agg.calls, agg.busy)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
