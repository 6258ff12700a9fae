package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/register"
	"spacebounds/internal/trace"
)

// RemoteError wraps a failure attributed to a specific node, so callers can
// tell which side of the wire failed while errors.Is still reaches the
// underlying dsys sentinel (ErrObjectDown, ErrRetiredObject, ErrRecovering,
// ErrHalted, ...).
type RemoteError struct {
	Node string
	Err  error
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("transport: node %s: %v", e.Node, e.Err) }

// Unwrap exposes the underlying sentinel to errors.Is / errors.As.
func (e *RemoteError) Unwrap() error { return e.Err }

// Client defaults.
const (
	// DefaultRoundTimeout bounds one quorum round when the caller's context
	// carries no deadline. A round outliving it returns ErrQuorumUnavailable
	// with whatever responses arrived; stragglers still take effect remotely,
	// exactly like RMWs applied after a client was rescheduled.
	DefaultRoundTimeout = 5 * time.Second
	// DefaultDialTimeout bounds one connection attempt.
	DefaultDialTimeout = 2 * time.Second
	// DefaultRedialBackoff is how long a node is considered down after a
	// failed dial before the next attempt; rounds in between fail fast on
	// that node instead of queueing on the dialer.
	DefaultRedialBackoff = 500 * time.Millisecond
)

type clientOptions struct {
	redialBackoff time.Duration
	metrics       *metrics.Registry
	tracer        *trace.Tracer
}

// ClientOption configures a Client.
type ClientOption func(*clientOptions)

// nodeSlot is the per-node connection state. Each node has its own mutex so
// rounds touching healthy nodes never serialize behind a dial to a dead one.
type nodeSlot struct {
	mu        sync.Mutex
	conn      *clientConn
	downUntil time.Time
	dialed    bool // a dial has been attempted; later attempts count as redials
}

// Client is the TCP Transport: one pipelined connection per node, reused
// across rounds and redialed on failure. It implements dsys.RoundInvoker, so
// dsys.NewRemoteCluster (and shard.NewRemote above it) plug it in directly.
type Client struct {
	addrs  []string
	place  Placement // RoundRobin over addrs, as the servers host them
	opts   clientOptions
	slots  []*nodeSlot
	nms    []*nodeMetrics // per-node instrumentation; nil entries when disabled
	reqSeq atomic.Uint64
	closed atomic.Bool
}

var _ Transport = (*Client)(nil)

// Dial creates a client for the given node addresses. Connections are opened
// lazily on first use, so Dial itself never blocks on the network.
func Dial(addrs []string, opts ...ClientOption) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: no node addresses")
	}
	o := clientOptions{redialBackoff: DefaultRedialBackoff}
	for _, opt := range opts {
		opt(&o)
	}
	slots := make([]*nodeSlot, len(addrs))
	nms := make([]*nodeMetrics, len(addrs))
	for i := range slots {
		slots[i] = &nodeSlot{}
		nms[i] = newNodeMetrics(o.metrics, addrs[i])
	}
	return &Client{addrs: addrs, place: RoundRobin(len(addrs)), opts: o, slots: slots, nms: nms}, nil
}

// clientConn is one live connection: a pipelined frame sender plus a reader
// goroutine dispatching responses to the rounds that sent the requests.
type clientConn struct {
	addr   string
	conn   net.Conn
	sender *frameSender
	nm     *nodeMetrics  // nil when metrics are disabled
	tr     *trace.Tracer // nil when tracing is disabled

	pmu     sync.Mutex
	pending map[uint64]*pendingCall
	dead    atomic.Bool
}

// pendingCall routes one request's response back to its round. A round cuts
// its calls from one array, so the connection's pending table and the
// messages delivered to the round both address a call by pointer.
type pendingCall struct {
	obj   int
	kind  string
	rmw   dsys.RMW    // the RMW the request carried; a read's answer is decoded into it
	conn  *clientConn // the connection the request went out on; names the node in errors
	reqID uint64
	ch    chan<- roundMsg
	start time.Time  // send instant; zero unless metrics are enabled
	sp    trace.Span // prepared RPC span; zero Trace unless the round is sampled
}

// roundMsg is the outcome of one call delivered to its waiting round: either
// a wire response or a connection-level failure.
type roundMsg struct {
	call *pendingCall
	resp dsys.Response
	err  error
}

// outcome is what the message means to its round: the decoded response of an
// RMW that took effect, or the failure, attributed to the node it came from.
// A response is decoded into the RMW its request carried, where the kind's
// answers ride (a read's), so outcome runs on the round's own goroutine and
// only before the round returns: a straggler's message is never read, and its
// answer never lands in an RMW its round's caller may be reading.
func (m roundMsg) outcome() (any, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.resp.Status != dsys.StatusOK {
		return nil, &RemoteError{Node: m.call.conn.addr, Err: m.resp.Status.Err()}
	}
	return register.DecodeResponse(m.call.kind, m.call.rmw, m.resp.Payload)
}

// roundTimeout is DefaultRoundTimeout; a variable only so that a test of this
// package can shorten it.
var roundTimeout = DefaultRoundTimeout

// roundTimers holds the timers that bound deadline-less rounds. A timer in
// the pool is stopped and its channel empty.
var roundTimers sync.Pool

// startRoundTimer returns a timer that fires roundTimeout from now.
func startRoundTimer() *time.Timer {
	if t, ok := roundTimers.Get().(*time.Timer); ok {
		t.Reset(roundTimeout)
		return t
	}
	return time.NewTimer(roundTimeout)
}

// stopRoundTimer returns a round's timer to the pool, fired or not.
func stopRoundTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	roundTimers.Put(t)
}

// roundWriters holds the writers rounds frame their requests in. A writer in
// the pool is empty and references no block.
var roundWriters = sync.Pool{New: func() any { return new(register.WireWriter) }}

// roundState is what an answered round waits with: the channel its calls'
// messages come back on and the array its calls are cut from. A round borrows
// one from roundStates; in the pool the channel is empty and every call zero,
// so no message of an earlier round reaches a later one and no RMW, connection
// or channel stays reachable from a call.
type roundState struct {
	ch    chan roundMsg
	calls []pendingCall
}

var roundStates sync.Pool

// getRoundState returns a round state for up to n calls.
func getRoundState(n int) *roundState {
	if st, ok := roundStates.Get().(*roundState); ok && cap(st.calls) >= n {
		return st
	}
	return &roundState{ch: make(chan roundMsg, n), calls: make([]pendingCall, 0, n)}
}

// finish ends a round: it deregisters every call still pending, receives the
// messages the round is still owed, and returns the state to the pool. A call
// that was no longer pending was removed by a response or a connection
// failure, whose sender sends its message after removing it under the
// connection's lock; the channel holds a message for every call, so that send
// never blocks. received is how many of those messages the round has already
// read; the others are owed and are read here, and they are the only ones on
// their way: once this returns, nothing sends on the channel or reads a call.
func (st *roundState) finish(received int) {
	owed := -received
	for i := range st.calls {
		if !st.calls[i].conn.deregister(st.calls[i].reqID) {
			owed++
		}
	}
	for ; owed > 0; owed-- {
		<-st.ch
	}
	clear(st.calls)
	st.calls = st.calls[:0]
	roundStates.Put(st)
}

// getConn returns the node's live connection, dialing if necessary. A failed
// dial marks the node down for the redial backoff so concurrent rounds fail
// fast instead of stacking up behind the dialer. Once the client is closed it
// dials nothing: Close empties each slot under its lock, so a round that
// passed its own check before Close would otherwise leave a connection behind
// that nobody closes.
func (c *Client) getConn(ctx context.Context, node int) (*clientConn, error) {
	slot := c.slots[node]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if c.closed.Load() {
		return nil, net.ErrClosed
	}
	if slot.conn != nil && !slot.conn.dead.Load() {
		return slot.conn, nil
	}
	if now := time.Now(); now.Before(slot.downUntil) {
		return nil, fmt.Errorf("%w: node %s in redial backoff", dsys.ErrRemote, c.addrs[node])
	}
	nm := c.nms[node]
	if slot.dialed && nm != nil {
		nm.redials.Inc()
	}
	slot.dialed = true
	d := net.Dialer{Timeout: DefaultDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addrs[node])
	if err != nil {
		slot.downUntil = time.Now().Add(c.opts.redialBackoff)
		return nil, err
	}
	cc := &clientConn{
		addr:    c.addrs[node],
		conn:    conn,
		sender:  newFrameSender(conn),
		nm:      nm,
		tr:      c.opts.tracer,
		pending: make(map[uint64]*pendingCall),
	}
	go cc.readLoop()
	slot.conn = cc
	return cc, nil
}

// register enrolls a request for response dispatch.
func (cc *clientConn) register(reqID uint64, call *pendingCall) {
	cc.pmu.Lock()
	cc.pending[reqID] = call
	cc.pmu.Unlock()
	if cc.nm != nil {
		cc.nm.inflight.Add(1)
	}
}

// deregister removes a request; late responses for it are dropped, exactly
// like responses to a client that has moved on (the RMW still took effect).
// It reports whether the call was still pending. One that was not has been
// removed by a response (take) or a connection failure (shutdown), and that
// remover sends the call's round a message. The in-flight gauge drops only if
// the call was still pending, and a traced call that was still pending records
// its RPC span as abandoned: the node parents its apply span under that ID
// whether or not anyone waits for the answer.
func (cc *clientConn) deregister(reqID uint64) bool {
	cc.pmu.Lock()
	call, ok := cc.pending[reqID]
	delete(cc.pending, reqID)
	cc.pmu.Unlock()
	if ok {
		cc.nm.observeResponse(call, false)
		cc.recordRPC(call, "abandoned")
	}
	return ok
}

// take removes and returns the pending call for a response frame, recording
// its latency.
func (cc *clientConn) take(reqID uint64) *pendingCall {
	cc.pmu.Lock()
	call := cc.pending[reqID]
	delete(cc.pending, reqID)
	cc.pmu.Unlock()
	if call != nil {
		cc.nm.observeResponse(call, true)
		cc.recordRPC(call, "")
	}
	return call
}

// shutdown marks the connection dead and fails every pending call, recording
// a traced call's RPC span as lost: the node may have read the request — and
// recorded its apply span under that ID — before the connection failed. Each
// round channel has capacity for all its requests, so these sends never block
// even if the round has already returned.
func (cc *clientConn) shutdown(err error) {
	if !cc.dead.CompareAndSwap(false, true) {
		return
	}
	cc.sender.fail(err)
	_ = cc.conn.Close()
	cc.pmu.Lock()
	pending := cc.pending
	cc.pending = make(map[uint64]*pendingCall)
	cc.pmu.Unlock()
	for _, call := range pending {
		cc.nm.observeResponse(call, false)
		cc.recordRPC(call, "lost")
		call.ch <- roundMsg{call: call, err: &RemoteError{Node: cc.addr, Err: err}}
	}
}

// readLoop dispatches response frames until the connection fails.
func (cc *clientConn) readLoop() {
	br := bufio.NewReader(cc.conn)
	var slab frameSlab
	for {
		frame, err := slab.readFrame(br)
		if err != nil {
			cc.shutdown(err)
			return
		}
		if len(frame) < 8 {
			cc.shutdown(fmt.Errorf("%w: response frame of %d bytes", ErrFrame, len(frame)))
			return
		}
		reqID := binary.BigEndian.Uint64(frame[:8])
		resp, err := dsys.UnmarshalResponse(frame[8:])
		if err != nil {
			cc.shutdown(err)
			return
		}
		if call := cc.take(reqID); call != nil {
			call.ch <- roundMsg{call: call, resp: resp}
		}
	}
}

// InvokeRound implements dsys.RoundInvoker: it ships one envelope per target
// to the hosting nodes over the pipelined connections and waits until quorum
// OK responses have arrived, the round's time is up, or every dispatched
// request has failed. Targets are global object IDs; the result map is keyed
// by them, and it is all a round allocates: its calls and the channel their
// messages come back on are a pooled roundState's, its frames take turns in
// one writer borrowed from a pool — each connection's sender copies a frame's
// inline bytes before send returns — and the blocks go to the socket from
// where the RMWs hold them.
//
// A round of a posted kind (register.Codec.Posted) waits for nothing: it
// returns a nil map and a nil error once every request is queued on its
// node's connection (postRound).
func (c *Client) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	if c.closed.Load() {
		return nil, net.ErrClosed
	}
	// A sampled round stamps its trace context into every envelope: each
	// request gets a fresh RPC span ID on the wire, so the node's apply (and
	// WAL) spans parent under the per-node RPC span recorded here.
	var tc trace.Context
	if c.opts.tracer != nil {
		tc = trace.FromContext(ctx)
	}
	var first dsys.RMW
	if len(targets) > 0 {
		first = makeRMW(targets[0])
		if codec, ok := register.CodecOf(first); ok && codec.Posted {
			return nil, c.postRound(ctx, client, tc, targets, makeRMW, first)
		}
	}

	// A context without a deadline is bounded by a pooled timer, not by a
	// context derived per round; one that carries a deadline is left alone.
	var timeUp <-chan time.Time
	if _, has := ctx.Deadline(); !has {
		t := startRoundTimer()
		defer stopRoundTimer(t)
		timeUp = t.C
	}

	// Every call keeps its slot until the round has finished — a connection
	// shutting down may still be reading a call whose send has failed — so
	// the array is never appended to beyond its capacity and its elements
	// never move; only a call that nobody but the round ever reached gives
	// its slot back.
	st := getRoundState(len(targets))
	w := roundWriters.Get().(*register.WireWriter)
	received := 0
	defer func() {
		// Stragglers past the quorum (or past a timeout) are dropped; their
		// RMWs still take effect remotely, as the model prescribes.
		st.finish(received)
		putRoundWriter(w)
	}()
	dispatched := 0
	var lastErr error
	for i, obj := range targets {
		rmw := first
		if i > 0 {
			rmw = makeRMW(obj)
		}
		req, lost, err := c.frameRequest(ctx, w, client, tc, obj, rmw, false)
		if err != nil {
			return nil, err
		}
		if lost != nil {
			lastErr = lost
			continue
		}
		cc := req.cc
		st.calls = append(st.calls, pendingCall{obj: obj, kind: req.codec.Kind, rmw: rmw, conn: cc, reqID: req.id, ch: st.ch})
		call := &st.calls[len(st.calls)-1]
		if cc.nm != nil {
			call.start = time.Now()
		}
		if tc.Sampled() {
			call.sp = req.span(tc)
		}
		cc.register(req.id, call)
		if err := cc.sender.send(w); err != nil {
			if cc.deregister(req.id) {
				// Still pending: no response or failure reached it, and none
				// will, so nothing is owed for it and its slot is free again.
				st.calls[len(st.calls)-1] = pendingCall{}
				st.calls = st.calls[:len(st.calls)-1]
			}
			lastErr = &RemoteError{Node: cc.addr, Err: err}
			continue
		}
		dispatched++
	}
	resp := make(map[int]any, dispatched)
	done := ctx.Done()
	for received < dispatched && len(resp) < quorum {
		select {
		case m := <-st.ch:
			received++
			v, err := m.outcome()
			if err != nil {
				lastErr = err
				continue
			}
			resp[m.call.obj] = v
		case <-done:
			return resp, roundEnded(len(resp), quorum, ctx.Err())
		case <-timeUp:
			return resp, roundEnded(len(resp), quorum, context.DeadlineExceeded)
		}
	}
	if len(resp) < quorum {
		if lastErr != nil {
			return resp, fmt.Errorf("%w: only %d of %d required responses available (last failure: %v)",
				dsys.ErrQuorumUnavailable, len(resp), quorum, lastErr)
		}
		return resp, fmt.Errorf("%w: only %d of %d required responses available",
			dsys.ErrQuorumUnavailable, len(resp), quorum)
	}
	return resp, nil
}

// roundEnded is the error of a round whose time ran out, or whose context was
// cancelled, short of its quorum.
func roundEnded(got, quorum int, cause error) error {
	return fmt.Errorf("%w: %d of %d responses when round ended (%v)",
		dsys.ErrQuorumUnavailable, got, quorum, cause)
}

// postRound sends a round of a posted kind: every request is framed and
// queued on its node's connection, and nothing waits for an answer, which the
// node never sends. So the round registers no call and keeps no channel,
// result map or timer. The connection's order is what a posted request relies
// on: its node applies it before anything the process sends there later. A
// request that cannot be queued — its node is down or in redial backoff, its
// connection has failed — is lost, as it would be to a connection failing
// after the send, and that costs the round nothing: a posted kind is one whose
// loss leaves its object in a state it has passed through. first is the RMW
// makeRMW has already made for targets[0].
func (c *Client) postRound(ctx context.Context, client int, tc trace.Context, targets []int, makeRMW func(obj int) dsys.RMW, first dsys.RMW) error {
	w := roundWriters.Get().(*register.WireWriter)
	defer putRoundWriter(w)
	for i, obj := range targets {
		rmw := first
		if i > 0 {
			rmw = makeRMW(obj)
		}
		req, lost, err := c.frameRequest(ctx, w, client, tc, obj, rmw, true)
		if err != nil {
			return err
		}
		if lost != nil {
			continue
		}
		var sp trace.Span
		if tc.Sampled() {
			sp = req.span(tc)
		}
		if err := req.cc.sender.send(w); err != nil {
			continue
		}
		if sp.Trace != 0 {
			// Recorded at send time: the node parents its apply span under
			// this ID, and no answer will ever close the span.
			sp.Duration = time.Since(sp.Start)
			sp.Note += " posted"
			c.opts.tracer.Record(sp)
		}
	}
	return nil
}

// outgoing is one request of a round, framed in the round's writer.
type outgoing struct {
	cc    *clientConn // the connection it goes out on
	codec register.Codec
	id    uint64        // its request ID
	env   dsys.Envelope // its addressing and trace context
}

// span is the request's RPC span under the round's trace context tc, opened
// now.
func (o *outgoing) span(tc trace.Context) trace.Span {
	return trace.Span{
		Trace: tc.Trace, ID: o.env.Span, Parent: tc.Span,
		Stage: trace.StageRPC, Note: o.cc.addr, Start: time.Now(),
	}
}

// frameRequest leaves in w the request frame that carries rmw to obj on
// behalf of client, under the round's trace context tc, and returns it with
// the connection it goes out on. A failure that costs this request alone — no
// connection to its node, a frame over the size limit — is returned as lost;
// any other error is the round's. posted is the kind of round: every RMW of a
// round is of a posted kind, or none is.
func (c *Client) frameRequest(ctx context.Context, w *register.WireWriter, client int, tc trace.Context, obj int, rmw dsys.RMW, posted bool) (req outgoing, lost, err error) {
	codec, ok := register.CodecOf(rmw)
	if !ok {
		// A programming error, not a fault.
		return req, nil, fmt.Errorf("%w: no codec for RMW type %T", register.ErrCodec, rmw)
	}
	if codec.Posted != posted {
		return req, nil, fmt.Errorf("%w: round mixes posted and answered kinds (%s)", register.ErrCodec, codec.Kind)
	}
	req.codec = codec
	req.env = dsys.Envelope{Op: dsys.OpID{Client: client}, Object: obj}
	if tc.Sampled() {
		req.env.Trace = tc.Trace
		req.env.Span = c.opts.tracer.SpanID()
	}
	node := c.place(obj)
	if node < 0 || node >= len(c.addrs) {
		return req, nil, fmt.Errorf("%w: object %d placed on node %d of %d", dsys.ErrRemote, obj, node, len(c.addrs))
	}
	if req.cc, err = c.getConn(ctx, node); err != nil {
		return req, &RemoteError{Node: c.addrs[node], Err: err}, nil
	}
	req.id = c.reqSeq.Add(1)
	if err := writeRequestFrame(w, req.id, req.env, codec, rmw); err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			// This call alone fails: sent, the frame would cost the
			// connection and every other round's calls on it.
			return req, fmt.Errorf("object %d: %w", obj, err), nil
		}
		return req, nil, err
	}
	return req, nil, nil
}

// putRoundWriter empties a round's writer and returns it to the pool.
func putRoundWriter(w *register.WireWriter) {
	w.Reset(reuse(w.Finish()), true)
	roundWriters.Put(w)
}

// Close implements Transport: it tears down every connection. In-flight
// rounds fail with connection errors.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, slot := range c.slots {
		slot.mu.Lock()
		if slot.conn != nil {
			slot.conn.shutdown(net.ErrClosed)
			slot.conn = nil
		}
		slot.mu.Unlock()
	}
	return nil
}
