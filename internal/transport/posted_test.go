package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/metrics"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// postedProbe is a kind registered by this package's tests alone: posted and
// read-only, so that a recovering node refuses it — the one refusal an
// adaptive GC, which mutates, never meets.
type postedProbe struct{}

func (postedProbe) Apply(dsys.State) any                             { return nil }
func (postedProbe) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

func init() {
	register.RegisterCodec(register.Codec{
		Kind:       "transport-test.postedprobe",
		ReadOnly:   true,
		Posted:     true,
		Write:      register.EmptyPayload,
		DecodeInto: func(dsys.RMW, []byte) (dsys.RMW, error) { return postedProbe{}, nil },
		WriteResp:  func(*register.WireWriter, any) error { return nil },
		DecodeResp: func(dsys.RMW, []byte) (any, error) { return nil, nil },
	}, postedProbe{})
}

// adaptiveSpecs is one adaptive shard named "s".
func adaptiveSpecs(f, k, dataLen int) []shard.Spec {
	return []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: f, K: k, DataLen: dataLen}}}
}

// gcOf is the GC of the write stamped ts, carrying no piece.
func gcOf(tb testing.TB, ts register.Timestamp) func(int) dsys.RMW {
	var w register.WireWriter
	w.TS(ts)
	w.Chunk(register.Chunk{})
	return rmwOf(tb, "adaptive.gc", w.Finish())
}

// storedTS is what an adaptive timestamp query answers at obj of cluster: the
// object's storedTS.
func storedTS(tb testing.TB, cluster *dsys.Cluster, obj int) register.Timestamp {
	tb.Helper()
	resp, err := cluster.ApplyOne(obj, rmwOf(tb, "adaptive.readts", nil)(obj))
	if err != nil {
		tb.Fatal(err)
	}
	return answeredTS(tb, resp)
}

// answeredTS is the storedTS an adaptive timestamp query's answer carries.
func answeredTS(tb testing.TB, resp any) register.Timestamp {
	tb.Helper()
	flat, err := register.EncodeResponse("adaptive.readts", resp)
	if err != nil {
		tb.Fatal(err)
	}
	return register.NewWireReader(flat).TS()
}

// frameTally counts the whole frames that cross a byte stream in one
// direction, however the stream is cut into reads or writes.
type frameTally struct {
	hdr   []byte
	left  int           // bytes of the current frame still to come
	total *atomic.Int64 // shared by every connection counted
}

func (f *frameTally) feed(p []byte) {
	for len(p) > 0 {
		if f.left == 0 {
			take := min(4-len(f.hdr), len(p))
			f.hdr, p = append(f.hdr, p[:take]...), p[take:]
			if len(f.hdr) == 4 {
				f.left, f.hdr = int(binary.BigEndian.Uint32(f.hdr)), f.hdr[:0]
			}
			continue
		}
		take := min(f.left, len(p))
		f.left, p = f.left-take, p[take:]
		if f.left == 0 {
			f.total.Add(1)
		}
	}
}

// countedConn is a server's end of a connection that counts the request
// frames it reads and the response frames it writes.
type countedConn struct {
	net.Conn
	in, out *frameTally
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n])
	return n, err
}

// Write counts before it writes: a peer that has read a frame finds it
// counted.
func (c *countedConn) Write(p []byte) (int, error) {
	c.out.feed(p)
	return c.Conn.Write(p)
}

// countedListener hands the server counted connections.
type countedListener struct {
	net.Listener
	requests, responses atomic.Int64
}

func (l *countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, in: &frameTally{total: &l.requests}, out: &frameTally{total: &l.responses}}, nil
}

// listenCounted starts srv on a loopback port behind a countedListener.
func listenCounted(t *testing.T, srv *Server) (*countedListener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countedListener{Listener: ln}
	srv.mu.Lock()
	srv.ln = cl
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.acceptLoop(cl)
	t.Cleanup(func() { _ = srv.Close() })
	return cl, ln.Addr().String()
}

// TestAdaptiveWriteGetsNoGCAnswers: an uncontended adaptive write over TCP
// puts 3n request frames on the wire — query, update, GC — and the node sends
// back 2n: the GC is posted, and no frame answers it. The GC round is not a
// quorum round to the client's metrics either: it feeds neither the RPC
// latency nor the in-flight gauge nor the quorum-round latency, while the
// node counts its requests under their status like any other.
func TestAdaptiveWriteGetsNoGCAnswers(t *testing.T) {
	const f, k, dataLen = 1, 2, 1 << 10
	n := 2*f + k
	specs := adaptiveSpecs(f, k, dataLen)
	srvReg := metrics.NewRegistry()
	backing, err := shard.New(specs, dsys.WithMetrics(srvReg))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	counted, addr := listenCounted(t, NewServer(backing.Cluster()))
	cliReg := metrics.NewRegistry()
	cli, err := Dial([]string{addr}, WithMetrics(cliReg))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.NewRemote(specs, cli, dsys.WithMetrics(cliReg))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.WriteValue(1, rs.Shards()[0], value.Sequenced(1, 1, dataLen)); err != nil {
		t.Fatal(err)
	}
	// A round's answers are timed while it waits, so what the histogram
	// counts now it counts for good. A GC round of the client's own adds
	// nothing to it; the full-quorum query behind it adds n.
	node := metrics.L("node", addr)
	rpcs := cliReg.Histogram(metricRPCSeconds, "", nil, node)
	timed := rpcs.Count()
	targets := make([]int, n)
	for obj := range targets {
		targets[obj] = obj
	}
	if _, err := cli.InvokeRound(context.Background(), 1, targets, gcOf(t, register.Timestamp{Num: 9, Client: 1}), n); err != nil {
		t.Fatal(err)
	}
	// The node serves the connection's frames in turn, so once a timestamp
	// query of every object is answered, every GC before it has been served.
	if _, err := cli.InvokeRound(context.Background(), 1, targets, rmwOf(t, "adaptive.readts", nil), n); err != nil {
		t.Fatal(err)
	}
	if got, want := counted.requests.Load()-int64(2*n), int64(3*n); got != want {
		t.Errorf("the write put %d request frames on the wire, want 3n = %d", got, want)
	}
	if got, want := counted.responses.Load()-int64(n), int64(2*n); got != want {
		t.Errorf("the write got %d response frames, want 2n = %d (the GC round is answered by none)", got, want)
	}
	if got := rpcs.Count() - timed; got != uint64(n) {
		t.Errorf("a GC round and a query round fed %s %d times, want n = %d: the query's answers alone", metricRPCSeconds, got, n)
	}
	if got := cliReg.Gauge(metricInflightFrames, "", node).Value(); got != 0 {
		t.Errorf("%s = %d after every answer came, want 0", metricInflightFrames, got)
	}
	if got := cliReg.Histogram("spacebounds_dsys_quorum_round_seconds", "", nil, metrics.L("region", "s")).Count(); got != 2 {
		t.Errorf("the write observed %d quorum rounds, want 2: the GC round waits for no quorum", got)
	}
	ok := metrics.L("status", dsys.StatusOK.String())
	if got, want := srvReg.Counter(metricServerTotal, "", ok).Value(), int64(5*n); got != want {
		t.Errorf("the node counted %d requests served ok, want %d: the GCs too", got, want)
	}
}

// TestPostedFrameDoesNotHoldItsRound: a posted round returns once its frames
// are queued, though the connection writes nothing until a gate opens, and the
// node serves whatever the process sends next only after them: a timestamp
// query sent behind a GC round finds every object's storedTS raised by it.
func TestPostedFrameDoesNotHoldItsRound(t *testing.T) {
	const f, k, dataLen = 1, 2, 1 << 10
	n := 2*f + k
	backing, err := shard.New(adaptiveSpecs(f, k, dataLen))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	srv := NewServer(backing.Cluster())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial([]string{addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	gated := gatedConn{Conn: raw, gate: gate}
	cc := &clientConn{addr: addr.String(), conn: gated, sender: newFrameSender(gated), pending: make(map[uint64]*pendingCall)}
	go cc.readLoop()
	cli.slots[0].conn = cc

	targets := make([]int, n)
	for obj := range targets {
		targets[obj] = obj
	}
	ts := register.Timestamp{Num: 5, Client: 1}
	returned := make(chan error, 1)
	go func() {
		resp, err := cli.InvokeRound(context.Background(), 1, targets, gcOf(t, ts), n)
		if err == nil && resp != nil {
			t.Errorf("a posted round returned a result map %v", resp)
		}
		returned <- err
	}()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("the posted round waited for its held-back frames")
	}
	for obj := range n {
		if got := storedTS(t, backing.Cluster(), obj); got != register.ZeroTS {
			t.Fatalf("object %d has storedTS %v before any GC frame left the client", obj, got)
		}
	}

	answers := make(chan map[int]any, 1)
	go func() {
		resp, err := cli.InvokeRound(context.Background(), 1, targets, rmwOf(t, "adaptive.readts", nil), n)
		if err != nil {
			t.Error(err)
		}
		answers <- resp
	}()
	close(gate)
	resp := <-answers
	for obj := range n {
		if got := answeredTS(t, resp[obj]); got != ts {
			t.Errorf("object %d answered storedTS %v to the query sent after the GC, want %v", obj, got, ts)
		}
	}
}

// TestPostedRequestIsNeverAnswered: a node answers no request of a posted
// kind, whatever becomes of it — applied, not hosted, malformed, or refused by
// a recovering node — and counts each under its status. A stream of such
// requests followed by one timestamp query gets exactly one frame back: the
// query's answer.
func TestPostedRequestIsNeverAnswered(t *testing.T) {
	reg, err := adaptive.New(register.Config{F: 1, K: 2, DataLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(64))
	if err != nil {
		t.Fatal(err)
	}
	srvReg := metrics.NewRegistry()
	cluster := dsys.NewCluster(states, dsys.WithLiveMode(), dsys.WithMetrics(srvReg))
	defer cluster.Close()
	srv := NewServer(cluster, WithRecovery(), WithHosts(func(obj int) bool { return obj != 3 }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var gc register.WireWriter
	gc.TS(register.Timestamp{Num: 1, Client: 1})
	gc.Chunk(register.Chunk{})
	requests := []struct {
		obj     int
		kind    string
		payload []byte
	}{
		{3, "adaptive.gc", gc.Finish()},        // not hosted
		{0, "adaptive.gc", []byte{0xFF}},       // malformed
		{0, "transport-test.postedprobe", nil}, // refused: object 0 is recovering
		{1, "adaptive.gc", gc.Finish()},        // applied
		{1, "adaptive.readts", nil},            // answered: the GC repaired object 1
	}
	var stream []byte
	for i, r := range requests {
		body, err := dsys.Envelope{Op: dsys.OpID{Client: 1, Seq: i}, Object: r.obj, Kind: r.kind, Payload: r.payload}.MarshalBinary()
		stream = append(stream, flatFrame(t, uint64(i+1), body, err)...)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	// The node answers a connection's requests in turn: the first frame back
	// would answer the first request that is answered at all.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	reqID := binary.BigEndian.Uint64(frame)
	resp, err := dsys.UnmarshalResponse(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	if reqID != uint64(len(requests)) || resp.Status != dsys.StatusOK {
		t.Fatalf("the first frame back answers request %d with %v; want the query's (request %d) ok", reqID, resp.Status, len(requests))
	}
	for status, want := range map[dsys.Status]int64{
		dsys.StatusOK: 2, dsys.StatusNotHosted: 1, dsys.StatusBadRequest: 1, dsys.StatusRecovering: 1,
	} {
		if got := srvReg.Counter(metricServerTotal, "", metrics.L("status", status.String())).Value(); got != want {
			t.Errorf("%s{status=%q} = %d, want %d", metricServerTotal, status, got, want)
		}
	}
}

// writeHold holds back every Write of the connections it is installed on from
// the moment it is armed until its gate opens.
type writeHold struct {
	armed atomic.Bool
	gate  chan struct{}
}

type heldConn struct {
	net.Conn
	hold *writeHold
}

func (c heldConn) Write(p []byte) (int, error) {
	if c.hold.armed.Load() {
		<-c.hold.gate
	}
	return c.Conn.Write(p)
}

// holdConnections gives every node of cli a fresh connection to addr under one
// new hold, shutting down the ones it replaces, and returns the hold and the
// connections.
func holdConnections(t *testing.T, cli *Client, addr string) (*writeHold, []*clientConn) {
	t.Helper()
	hold := &writeHold{gate: make(chan struct{})}
	conns := make([]*clientConn, len(cli.slots))
	for i, slot := range cli.slots {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn := heldConn{Conn: raw, hold: hold}
		conns[i] = &clientConn{addr: cli.addrs[i], conn: conn, sender: newFrameSender(conn), pending: make(map[uint64]*pendingCall)}
		go conns[i].readLoop()
		slot.mu.Lock()
		old := slot.conn
		slot.conn = conns[i]
		slot.mu.Unlock()
		if old != nil {
			old.shutdown(net.ErrClosed)
		}
	}
	return hold, conns
}

// postedHook runs before, when set, as a posted round makes its first RMW:
// before any of the round's frames is framed.
type postedHook struct {
	inner  dsys.RoundInvoker
	before func()
}

func (p *postedHook) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	var once sync.Once
	return p.inner.InvokeRound(ctx, client, targets, func(obj int) dsys.RMW {
		rmw := makeRMW(obj)
		once.Do(func() {
			if c, _ := register.CodecOf(rmw); c.Posted && p.before != nil {
				p.before()
			}
		})
		return rmw
	}, quorum)
}

func (p *postedHook) Close() error { return p.inner.(Transport).Close() }

// TestWriteReturnsWhileItsGCsAreHeld: a writer's GC frames are held back at
// every node, and its Write returns. Another client's read returns the new
// value, the history is strongly regular, and storage sits at the pre-GC
// 2·(2f+k)/k·D until the frames are let through and it settles at
// (2f+k)/k·D. A second write's GC frames are still held when the connections
// carrying them are cut: every object stays as that write's update left it,
// readable, and the next write's GC brings storage back to the quiescent cost.
func TestWriteReturnsWhileItsGCsAreHeld(t *testing.T) {
	const f, k, dataLen = 1, 2, 1 << 10
	n := 2*f + k
	quiescent := n * 8 * dataLen / k
	specs := adaptiveSpecs(f, k, dataLen)
	backing, err := shard.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	srv := NewServer(backing.Cluster())
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := ln.String()

	// The writer has a connection per object, the reader one in all.
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = addr
	}
	writerCli, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	hook := &postedHook{inner: writerCli}
	writer, err := shard.NewRemote(specs, hook)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	readerCli, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := shard.NewRemote(specs, readerCli)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	bits := func() int { return backing.Cluster().SampleStorage().BaseObjectBits }
	settle := func(want int, why string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); bits() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: storage %d bits, want %d", why, bits(), want)
			}
		}
	}
	// A write's GC is held once its update has reached every object, so
	// that the connections hold nothing but GC frames.
	holdGCs := func(hold *writeHold) {
		hook.before = func() {
			settle(2*quiescent, "the update round at every object")
			hold.armed.Store(true)
		}
	}
	rec := history.NewRecorder()
	write := func(v value.Value) {
		t.Helper()
		op := rec.BeginWrite(1, v)
		if err := writer.WriteValue(1, writer.Shards()[0], v); err != nil {
			t.Fatal(err)
		}
		rec.EndWrite(op)
	}
	read := func(want value.Value) {
		t.Helper()
		op := rec.BeginRead(2)
		got, err := reader.ReadValue(2, reader.Shards()[0])
		if err != nil {
			t.Fatal(err)
		}
		rec.EndRead(op, got)
		if !got.Equal(want) {
			t.Fatal("the read did not return the last write's value")
		}
	}
	states := func() (out [][]byte) {
		for obj := range n {
			out = append(out, encodedState(t, srv, obj))
		}
		return out
	}

	hold, _ := holdConnections(t, writerCli, addr)
	holdGCs(hold)
	v1 := value.Sequenced(1, 1, dataLen)
	write(v1)
	read(v1)
	if got := bits(); got != 2*quiescent {
		t.Errorf("storage %d bits while the GC frames are held, want the pre-GC %d", got, 2*quiescent)
	}
	close(hold.gate)
	settle(quiescent, "the held GC frames let through")

	hold, held := holdConnections(t, writerCli, addr)
	holdGCs(hold)
	v2 := value.Sequenced(2, 1, dataLen)
	write(v2)
	before := states()
	for _, cc := range held {
		cc.shutdown(net.ErrClosed)
	}
	close(hold.gate)
	for _, cc := range held {
		<-cc.sender.done
	}
	for obj, want := range before {
		if got := encodedState(t, srv, obj); !bytes.Equal(got, want) {
			t.Errorf("object %d changed after its GC frame was cut off", obj)
		}
	}
	read(v2)
	if got := bits(); got != 2*quiescent {
		t.Errorf("storage %d bits after the GC frames were cut off, want the pre-GC %d", got, 2*quiescent)
	}

	hook.before = nil
	v3 := value.Sequenced(3, 1, dataLen)
	write(v3) // redials
	settle(quiescent, "the next write's GC")
	read(v3)
	if err := history.CheckStrongRegularity(rec.History(value.Zero(dataLen))); err != nil {
		t.Fatal(err)
	}
}

// TestPostedRoundAllocations: a posted round keeps no bookkeeping — no call
// array, channel, result map or timer — and its frames, like every other
// round's, allocate on neither side of the wire, so once warm a GC round of n
// objects allocates nothing.
func TestPostedRoundAllocations(t *testing.T) {
	const f, k, dataLen = 1, 2, 1 << 10
	n := 2*f + k
	backing, err := shard.New(adaptiveSpecs(f, k, dataLen))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	srv := NewServer(backing.Cluster())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial([]string{addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	targets := make([]int, n)
	gcs := make([]dsys.RMW, n)
	for obj := range targets {
		targets[obj] = obj
		gcs[obj] = gcOf(t, register.Timestamp{Num: 1, Client: 1})(obj)
	}
	ctx := context.Background()
	round := func() {
		if _, err := cli.InvokeRound(ctx, 1, targets, func(obj int) dsys.RMW { return gcs[obj] }, n); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := testing.AllocsPerRun(500, round); got != 0 {
		t.Errorf("a %d-target posted round allocates %.1f times, want 0", n, got)
	}
}
