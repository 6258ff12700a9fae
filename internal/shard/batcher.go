package shard

import (
	"sync"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// BatchConfig configures per-shard group commit: concurrent Write (and Read)
// calls that arrive while a quorum round is in flight — or within MaxDelay of
// each other — are coalesced into one shared round.
type BatchConfig struct {
	// MaxSize caps the number of operations one shared round may carry
	// (default 16).
	MaxSize int
	// MaxDelay is how long an idle lane waits for companions before
	// dispatching a round that is not yet full (default 0: dispatch
	// immediately; under load rounds fill up anyway because operations
	// accumulate while the previous round is in flight).
	MaxDelay time.Duration
}

// Enabled reports whether the zero-value-off batch engine was requested:
// setting either field turns it on.
func (c BatchConfig) Enabled() bool { return c.MaxSize > 0 || c.MaxDelay > 0 }

// WithDefaults fills zero fields.
func (c BatchConfig) WithDefaults() BatchConfig {
	if c.MaxSize <= 0 {
		c.MaxSize = 16
	}
	return c
}

// BatcherStats counts the batcher's amortization: Writes/Reads are member
// operations completed through the batcher, WriteRounds/ReadRounds the
// physical quorum rounds that carried them. Rounds < operations is the
// group-commit win.
type BatcherStats struct {
	Writes, Reads           int
	WriteRounds, ReadRounds int
}

// Batcher coalesces concurrent operations on one shard into shared quorum
// rounds (group commit). Writes batch with writes and reads with reads; each
// lane dispatches one physical round at a time, so per-shard write concurrency
// is 1 regardless of the client count — which also keeps the shard at the
// cheap end of the paper's min(f, c)·D storage bound.
//
// Batching preserves per-shard strong regularity: a round only carries
// operations that were already pending when it was dispatched, so every
// member's invocation-to-response interval contains the physical round, and
// the recorded history of member operations inherits the register's
// guarantees (an absorbed write behaves like a write immediately superseded
// by the round's winning write, which regularity permits).
type Batcher struct {
	set *Set
	sh  *Shard

	cfg   BatchConfig
	write lane
	read  lane

	met *instruments  // nil when the cluster has no registry
	tr  *trace.Tracer // the cluster's; nil when it has none
}

// newBatcher builds the shard's batcher, instrumented with the cluster's
// registry and tracer. laneClientBase is the client ID the write lane uses for
// its physical rounds; the read lane uses the next ID. Lane IDs must not
// collide with real client IDs (the facade allocates them from a high range)
// so that the lanes' timestamps stay unique.
func newBatcher(set *Set, sh *Shard, cfg BatchConfig, laneClientBase int) *Batcher {
	b := &Batcher{
		set: set, sh: sh, cfg: cfg.WithDefaults(),
		met: newInstruments(set.cluster.Metrics(), sh.Name),
		tr:  set.cluster.Tracer(),
	}
	b.write.client = laneClientBase
	b.write.full = make(chan struct{}, 1)
	b.write.round = func(h *dsys.ClientHandle) error { return sh.Reg.Write(h, b.write.winner) }
	b.read.client = laneClientBase + 1
	b.read.full = make(chan struct{}, 1)
	b.read.round = func(h *dsys.ClientHandle) (err error) {
		b.read.got, err = sh.Reg.Read(h)
		return err
	}
	return b
}

// Stats returns the batcher's amortization counters.
func (b *Batcher) Stats() BatcherStats {
	b.write.mu.Lock()
	w, wr := b.write.members, b.write.rounds
	b.write.mu.Unlock()
	b.read.mu.Lock()
	r, rr := b.read.members, b.read.rounds
	b.read.mu.Unlock()
	return BatcherStats{Writes: w, Reads: r, WriteRounds: wr, ReadRounds: rr}
}

// batchResp carries a shared round's outcome to one member — or, with lead
// set, no outcome at all: the receiver's request is now the lane's oldest and
// its owner runs the next round.
type batchResp struct {
	v    value.Value
	err  error
	lead bool
}

// batchReq is one member operation waiting for a shared round.
type batchReq struct {
	v    value.Value    // payload for writes; unused for reads
	wake chan batchResp // nil for a caller that led from an idle lane: it never waits
	tc   trace.Context  // the member operation's trace context
	enq  time.Time      // enqueue instant; zero unless metered or tc is sampled
}

// lane is one direction (writes or reads) of a shard's batcher.
type lane struct {
	mu      sync.Mutex
	pending []batchReq
	// led is set while some caller holds the lead: from the moment a caller
	// finds the lane idle until a leader finds nothing pending after its
	// round. An idle lane has nothing pending.
	led    bool
	client int // client ID of the lane's physical rounds

	// full wakes a leader idling in its MaxDelay accumulation window as soon
	// as the pending batch reaches MaxSize (capacity 1, non-blocking sends).
	full chan struct{}

	members int // operations completed through this lane
	rounds  int // physical rounds dispatched

	// round is the lane's physical round, built once: the write lane's writes
	// winner, the read lane's leaves what it read in got. Only the lane's
	// current leader touches the two, outside mu; the lead passes from one
	// leader to the next through mu or a wake channel, which orders them.
	round  func(h *dsys.ClientHandle) error
	winner value.Value
	got    value.Value
}

// Write submits v for group commit and blocks until the shared round that
// carries it completes. When several writes share a round, the round writes
// the latest-arrived value; the earlier ones are superseded at the same
// instant, exactly as if they had been written and immediately overwritten.
func (b *Batcher) Write(v value.Value) error {
	resp := b.submit(&b.write, v, trace.Context{})
	return resp.err
}

// Read submits a read for group commit and blocks until the shared read
// round completes; every member of the round receives the same value.
func (b *Batcher) Read() (value.Value, error) {
	resp := b.submit(&b.read, value.Value{}, trace.Context{})
	return resp.v, resp.err
}

// writeTraced is Write carrying the member operation's trace context.
func (b *Batcher) writeTraced(v value.Value, tc trace.Context) error {
	resp := b.submit(&b.write, v, tc)
	return resp.err
}

// readTraced is Read carrying the member operation's trace context.
func (b *Batcher) readTraced(tc trace.Context) (value.Value, error) {
	resp := b.submit(&b.read, value.Value{}, tc)
	return resp.v, resp.err
}

// submit enqueues a request on the lane and returns its shared round's
// outcome. Nobody works on the caller's behalf: a caller that finds the lane
// idle leads — it runs the round carrying its request on its own goroutine —
// and a caller that finds a leader at work waits to be answered by a round,
// or to be handed the lead once its request is the oldest still waiting.
func (b *Batcher) submit(l *lane, v value.Value, tc trace.Context) batchResp {
	req := batchReq{v: v, tc: tc}
	if b.met != nil || tc.Sampled() {
		req.enq = time.Now()
	}
	l.mu.Lock()
	if l.led {
		req.wake = make(chan batchResp, 1)
		l.pending = append(l.pending, req)
		if len(l.pending) >= b.cfg.MaxSize {
			select {
			case l.full <- struct{}{}:
			default:
			}
		}
		l.mu.Unlock()
		resp := <-req.wake
		if !resp.lead {
			return resp
		}
		l.mu.Lock()
	} else {
		l.led = true
		l.pending = append(l.pending, req)
	}
	return b.leadRound(l)
}

// leaderBatch is how many members of a round a leader copies without
// allocating; a larger round spills to the heap.
const leaderBatch = 8

// leadRound runs exactly one physical quorum round on behalf of up to MaxSize of
// the oldest pending requests — the caller's own is the oldest — answers the
// other members, and passes the lead on: to the owner of the oldest request
// still waiting, or to nobody, leaving the lane idle. Requests that arrive
// while the round is in flight go into a later round — never this one —
// which is what keeps every member's interval containing its round. The
// caller holds l.mu; leadRound releases it.
func (b *Batcher) leadRound(l *lane) batchResp {
	if b.cfg.MaxDelay > 0 && len(l.pending) < b.cfg.MaxSize {
		// Idle-window accumulation: give companions MaxDelay to arrive,
		// but dispatch immediately if the batch fills meanwhile.
		l.mu.Unlock()
		timer := time.NewTimer(b.cfg.MaxDelay)
		select {
		case <-l.full:
		case <-timer.C:
		}
		timer.Stop()
		l.mu.Lock()
	}
	n := min(len(l.pending), b.cfg.MaxSize)
	var buf [leaderBatch]batchReq
	batch := append(buf[:0], l.pending[:n]...)
	rest := copy(l.pending, l.pending[n:])
	clear(l.pending[rest:]) // the lane keeps the array; do not pin answered payloads
	l.pending = l.pending[:rest]
	l.rounds++
	l.mu.Unlock()

	if b.met != nil {
		b.met.observeBatch(l == &b.write, batch, time.Now())
	}
	// Tracing: each sampled member gets a batch-wait span (enqueue →
	// dispatch), and the physical round runs under the first sampled
	// member's context — its quorum rounds are recorded for real. The
	// other sampled members get a synthetic round span covering the same
	// interval, so every member's trace accounts for the shared round it
	// rode (marked "shared" to distinguish it from a round the tracer
	// measured directly).
	tr := b.tr
	var lead trace.Context
	var roundStart time.Time
	if tr != nil {
		laneName := "read"
		if l == &b.write {
			laneName = "write"
		}
		roundStart = time.Now()
		for _, r := range batch {
			if !r.tc.Sampled() {
				continue
			}
			tr.Record(trace.Span{
				Trace: r.tc.Trace, ID: tr.SpanID(), Parent: r.tc.Span,
				Stage: trace.StageBatchWait, Shard: b.sh.Name, Note: laneName,
				Start: r.enq, Duration: roundStart.Sub(r.enq),
			})
			if !lead.Sampled() {
				lead = r.tc
			}
		}
	}
	// Group commit: a write round writes the latest-arrived value. The lane
	// keeps neither value past its round.
	l.winner = batch[n-1].v
	resp := batchResp{err: b.set.runTraced(l.client, b.sh, lead, l.round)}
	resp.v = l.got
	l.winner, l.got = value.Value{}, value.Value{}
	if tr != nil && lead.Sampled() {
		d := time.Since(roundStart)
		for _, r := range batch {
			if !r.tc.Sampled() || r.tc == lead {
				continue
			}
			tr.Record(trace.Span{
				Trace: r.tc.Trace, ID: tr.SpanID(), Parent: r.tc.Span,
				Stage: trace.StageRound, Shard: b.sh.Name, Note: "shared",
				Start: roundStart, Duration: d,
			})
		}
	}

	l.mu.Lock()
	l.members += n
	var next chan batchResp
	if len(l.pending) > 0 {
		next = l.pending[0].wake
	} else {
		l.led = false
	}
	l.mu.Unlock()
	for _, r := range batch[1:] {
		r.wake <- resp
	}
	if next != nil {
		next <- batchResp{lead: true}
	}
	return resp
}
