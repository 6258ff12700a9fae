package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/shard"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// flatFrame is a frame as the protocol defines it, built the slow way:
// `u32 length | u64 requestID | body`, body an envelope's or a response's
// AppendBinary. It is what the senders' segments must add up to, and what a
// peer that is not this package would send.
func flatFrame(tb testing.TB, reqID uint64, body []byte, err error) []byte {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
	return append(startFrame(nil, 8+len(body), reqID), body...)
}

// roundTargets is the fan-out of the rounds these tests and
// BenchmarkInvokeRound drive: the n of the benchmark's tcp-small topology.
const roundTargets = 4

// roundFixture is one server over loopback TCP hosting roundTargets abd base
// objects of 64 bytes, and a client dialed to it.
type roundFixture struct {
	cluster *dsys.Cluster
	addr    string
	cli     *Client
	targets []int
}

func newRoundFixture(tb testing.TB, opts ...ServerOption) *roundFixture {
	tb.Helper()
	reg, err := safereg.NewABD(register.Config{F: 1, K: 1, DataLen: 64})
	if err != nil {
		tb.Fatal(err)
	}
	var states []dsys.State
	for len(states) < roundTargets {
		more, err := reg.InitialStates(value.Zero(64))
		if err != nil {
			tb.Fatal(err)
		}
		states = append(states, more...)
	}
	fx := &roundFixture{cluster: dsys.NewCluster(states[:roundTargets], dsys.WithLiveMode())}
	tb.Cleanup(fx.cluster.Close)
	srv := NewServer(fx.cluster, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	fx.addr = addr.String()
	if fx.cli, err = Dial([]string{fx.addr}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = fx.cli.Close() })
	for obj := 0; obj < roundTargets; obj++ {
		fx.targets = append(fx.targets, obj)
	}
	return fx
}

// rmwOf builds RMWs of a registered kind from an encoded payload (the
// providers' RMW types are unexported).
func rmwOf(tb testing.TB, kind string, payload []byte) func(int) dsys.RMW {
	tb.Helper()
	c, ok := register.CodecByKind(kind)
	if !ok {
		tb.Fatalf("%s codec not registered", kind)
	}
	return func(int) dsys.RMW {
		rmw, err := c.Decode(payload)
		if err != nil {
			tb.Fatal(err)
		}
		return rmw
	}
}

// abdRead builds one abd read per object, each answer riding in its RMW, as
// a provider's read round does. Every call of the result decodes the object's
// read over the one it returned last, so that a round of them allocates
// nothing: a client decodes no answer once its round has returned.
func abdRead(tb testing.TB) func(int) dsys.RMW {
	tb.Helper()
	c, ok := register.CodecByKind("abd.read")
	if !ok {
		tb.Fatal("abd.read codec not registered")
	}
	var reads []dsys.RMW
	return func(obj int) dsys.RMW {
		if obj >= len(reads) {
			reads = append(reads, make([]dsys.RMW, obj+1-len(reads))...)
		}
		rmw, err := c.DecodeInto(reads[obj], nil)
		if err != nil {
			tb.Fatal(err)
		}
		reads[obj] = rmw
		return rmw
	}
}

func abdUpdate(tb testing.TB) func(int) dsys.RMW { return abdUpdateOf(tb, 0) }

// abdUpdateOf is an update carrying a block of blockLen bytes; every call of
// the result returns the same RMW, as a round's RMWs share one write's blocks.
func abdUpdateOf(tb testing.TB, blockLen int) func(int) dsys.RMW {
	var w register.WireWriter
	w.Chunk(register.Chunk{TS: register.Timestamp{Num: 3, Client: 1}, Block: erasure.Block{Index: 1, Data: make([]byte, blockLen)}})
	rmw := rmwOf(tb, "abd.update", w.Finish())(0)
	return func(int) dsys.RMW { return rmw }
}

// read runs one full-quorum read round without a deadline.
func (fx *roundFixture) read(tb testing.TB) error {
	resp, err := fx.cli.InvokeRound(context.Background(), 1, fx.targets, abdRead(tb), roundTargets)
	if err == nil && len(resp) != roundTargets {
		tb.Fatalf("round returned %d of %d responses without an error", len(resp), roundTargets)
	}
	return err
}

// park holds object 0's apply lock until the returned release is called. The
// server serves a connection's requests in turn, so every request behind the
// one addressed to object 0 waits with it.
func (fx *roundFixture) park(tb testing.TB) (release func()) {
	tb.Helper()
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- fx.cluster.ReadObjectState(0, func(dsys.State) {
			close(held)
			<-free
		})
	}()
	<-held
	return func() {
		close(free)
		if err := <-done; err != nil {
			tb.Error(err)
		}
	}
}

// TestDeadlinelessRoundTimesOut: a round whose context carries no deadline is
// still bounded — by the round timeout, with ErrQuorumUnavailable — and the
// timer that bounded it goes back to the pool stopped and drained. A context
// with a deadline of its own ends the round at that deadline instead.
func TestDeadlinelessRoundTimesOut(t *testing.T) {
	fx := newRoundFixture(t)
	if err := fx.read(t); err != nil {
		t.Fatalf("round on a healthy node: %v", err)
	}
	const timeout = 40 * time.Millisecond
	roundTimeout = timeout
	t.Cleanup(func() { roundTimeout = DefaultRoundTimeout })
	release := fx.park(t)
	defer release()

	// The race detector makes sync.Pool drop some of what it is given, so the
	// timer of one round may be gone; the timer of one of a few must not be.
	var pooled *time.Timer
	for attempt := 0; attempt < 20 && pooled == nil; attempt++ {
		for roundTimers.Get() != nil { // start from an empty pool
		}
		start := time.Now()
		resp, err := fx.cli.InvokeRound(context.Background(), 1, fx.targets, abdRead(t), 2)
		if !errors.Is(err, dsys.ErrQuorumUnavailable) || len(resp) != 0 {
			t.Fatalf("round against a parked node: %d responses, err = %v; want ErrQuorumUnavailable", len(resp), err)
		}
		if !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
			t.Errorf("err = %v, want it to name the expired deadline", err)
		}
		if elapsed := time.Since(start); elapsed < timeout {
			t.Fatalf("round gave up after %v, before its %v timeout", elapsed, timeout)
		}
		pooled, _ = roundTimers.Get().(*time.Timer)
	}
	if pooled == nil {
		t.Fatal("no round returned its timer to the pool")
	}
	if pooled.Stop() {
		t.Error("the pooled timer was still running")
	}
	select {
	case <-pooled.C:
		t.Error("the pooled timer still held its expiry")
	default:
	}

	roundTimeout = time.Minute
	start := time.Now() // before the deadline is set: the round may not end ahead of it
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if _, err := fx.cli.InvokeRound(ctx, 1, fx.targets, abdRead(t), 2); !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("round under a context deadline: err = %v, want ErrQuorumUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 10*time.Second {
		t.Fatalf("round under a %v context deadline ended after %v", timeout, elapsed)
	}
}

// TestReusedRoundTimerNeverEndsRoundEarly runs rounds back to back on timers
// from the pool, among them timers that expired with nobody receiving — the
// state a round leaves when its quorum and its timeout arrive together. With
// the timeout back at its default no round may end short of its quorum.
func TestReusedRoundTimerNeverEndsRoundEarly(t *testing.T) {
	fx := newRoundFixture(t)
	t.Cleanup(func() { roundTimeout = DefaultRoundTimeout })
	for i := 0; i < 1000; i++ {
		if i%25 == 0 {
			roundTimeout = time.Microsecond
			expired := startRoundTimer()
			time.Sleep(time.Millisecond)
			stopRoundTimer(expired)
			roundTimeout = DefaultRoundTimeout
		}
		if err := fx.read(t); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

// roundAllocsParent is what one 4-target abd read round over loopback TCP,
// client and server sides together, allocated at this build's parent: 2, its
// result map, without the race detector. The parent's round made its map.
const roundAllocsParent = 2

// poolDropAllocs is what a round may allocate because a sync.Pool handed it
// nothing: zero, but for the race detector, whose pools drop a quarter of
// what is put back (race_test.go).
var poolDropAllocs = 0.0

// opPoolDropAllocs is poolDropAllocs for a round of a remote cluster's
// handle and for a whole remote operation, which borrow from the remote
// engine's pools as well as from both sides of the wire for every request.
var opPoolDropAllocs = 0.0

// TestRoundAllocations pins what a quorum round allocates when its caller
// releases the result map, as the remote engine does: nothing. Its map comes
// from dsys.RoundResult, its calls and the channel their messages come back
// on are a pooled roundState's, its writer and its timer come from pools, and
// it derives no context; no frame allocates on either side of the wire: a
// sender copies what it is sent into the connection's staging buffer, a
// server reads every request into one buffer and frames every response in
// one writer, and the client cuts its responses from a slab. Nor does a
// message per target: a server connection decodes each request over its last
// RMW of the kind and answers in it, and the client decodes each answer into
// the RMW it sent.
func TestRoundAllocations(t *testing.T) {
	fx := newRoundFixture(t)
	makeRMW := abdRead(t)
	round := func() {
		resp, err := fx.cli.InvokeRound(context.Background(), 1, fx.targets, makeRMW, roundTargets)
		if err != nil {
			t.Fatal(err)
		}
		dsys.ReleaseRoundResult(resp)
	}
	round()
	if got, want := testing.AllocsPerRun(500, round), poolDropAllocs; got > want {
		t.Errorf("a %d-target round allocates %.1f times, want at most %.0f (its parent measured %d)",
			roundTargets, got, want, roundAllocsParent)
	}
}

// awaitedRoundAllocsParent is what TestAwaitedRemoteRoundAllocations' round
// allocated at this build's parent: its RMW array and the transport's result
// map.
const awaitedRoundAllocsParent = 3

// TestAwaitedRemoteRoundAllocations pins what an awaited round of a remote
// cluster's client handle allocates over loopback TCP, both sides counted:
// its RMW array, which a register makes per round (here a []dsys.RMW whose
// reads are decoded in place), and nothing else. The handle comes from
// RunScoped's pool, invokeRemote's translation from a pooled remoteRound, the
// answers land in the handle's slots, and the transport's result map goes
// back to dsys.RoundResult's pool as soon as they do.
func TestAwaitedRemoteRoundAllocations(t *testing.T) {
	fx := newRoundFixture(t)
	remote := dsys.NewRemoteCluster(roundTargets, fx.cli)
	t.Cleanup(remote.Close)
	read := abdRead(t)
	var rmws []dsys.RMW // escapes, as a register's RMW array does
	round := func(h *dsys.ClientHandle) error {
		rmws = make([]dsys.RMW, roundTargets)
		resp, err := h.InvokeAll(func(obj int) dsys.RMW {
			rmws[obj] = read(obj)
			return rmws[obj]
		}, roundTargets)
		if err == nil && resp[roundTargets-1] == nil {
			err = errors.New("the round returned no answer from the last object")
		}
		return err
	}
	run := func() {
		if err := remote.RunScoped(1, 0, roundTargets, round); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got, want := testing.AllocsPerRun(500, run), 1+opPoolDropAllocs; got > want {
		t.Errorf("an awaited remote round allocates %.1f times, want at most %.0f, its RMW array (its parent measured %d)",
			got, want, awaitedRoundAllocsParent)
	}
}

// TestLeanReadFramesShareOneBuffer: the requests of an adaptive read's first
// round are of two kinds, adaptive.read to k+f objects and the longer-named
// adaptive.readts to the other f, and one writer frames them all in turn in
// one buffer: once it has framed such a round, framing the next allocates
// nothing.
func TestLeanReadFramesShareOneBuffer(t *testing.T) {
	const n, pieces = 8, 6
	read, _ := register.CodecByKind("adaptive.read")
	readTS, _ := register.CodecByKind("adaptive.readts")
	rmws := make([]dsys.RMW, n)
	for obj := range rmws {
		codec := read
		if obj >= pieces {
			codec = readTS
		}
		var err error
		if rmws[obj], err = codec.Decode(nil); err != nil {
			t.Fatal(err)
		}
	}
	var w register.WireWriter
	round := func() {
		for obj, rmw := range rmws {
			codec, _ := register.CodecOf(rmw)
			env := dsys.Envelope{Op: dsys.OpID{Client: 1}, Object: obj}
			if err := writeRequestFrame(&w, uint64(obj), env, codec, rmw); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("framing a lean read's %d requests again allocates %.1f times, want 0", n, got)
	}
}

// stubNode is a node that answers every request with one canned response
// payload and allocates nothing per request, so that what a round against it
// allocates is the client's alone.
func stubNode(tb testing.TB, payload []byte) (addr string) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = ln.Close() })
	body, err := dsys.Response{Status: dsys.StatusOK, Payload: payload}.MarshalBinary()
	answer := flatFrame(tb, 0, body, err)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var buf []byte
		for {
			if buf, err = readFrame(br, buf); err != nil || len(buf) < 8 {
				return
			}
			copy(answer[4:12], buf[:8]) // the request's ID
			if _, err := conn.Write(answer); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// allocatedPerRun is testing.AllocsPerRun for bytes.
func allocatedPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestBlocksReachTheSocketUnallocated pins the write and the read path of a
// large value at tcp-large's shape, 16 KiB pieces at n = 8: an update round
// that sends every object its piece, and a served read whose response carries
// one, allocate what their headers and bookkeeping need — 2 KiB and a few
// hundred bytes per target — and nothing the size of a block.
func TestBlocksReachTheSocketUnallocated(t *testing.T) {
	const n, blockLen = 8, 16 << 10
	cli, err := Dial([]string{stubNode(t, []byte{1})})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	update := abdUpdateOf(t, blockLen)
	perRound := allocatedPerRun(200, func() {
		if resp, err := cli.InvokeRound(context.Background(), 1, targets, update, n); err != nil || len(resp) != n {
			t.Fatalf("round against the stub: %d responses, %v", len(resp), err)
		}
	})
	if limit := uint64(2<<10 + 512*n); perRound > limit {
		t.Errorf("an update round of %d pieces of %d bytes allocates %d bytes, want at most %d", n, blockLen, perRound, limit)
	}

	srv := largeServer(t) // 16 KiB pieces
	request, err := dsys.Envelope{Op: dsys.OpID{Client: 1, Kind: dsys.OpRead}, Kind: "adaptive.read"}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rmws register.Decoded
	var w register.WireWriter
	var segs [][]byte
	sent := 0
	perRead := allocatedPerRun(200, func() {
		resp, c, out := srv.serve(request, &rmws)
		if status, err := writeResponseFrame(&w, 7, resp, c, out); err != nil || status != dsys.StatusOK {
			t.Fatalf("served %v (%v)", status, err)
		}
		segs, sent = w.Segments(segs[:0]), w.Len()
	})
	if sent < blockLen || len(segs) != 3 {
		t.Fatalf("the response is %d bytes in %d segments, want a %d-byte piece between its headers", sent, len(segs), blockLen)
	}
	if limit := uint64(2 << 10); perRead > limit {
		t.Errorf("serving a read of a %d-byte piece allocates %d bytes, want at most %d", blockLen, perRead, limit)
	}
}

// oversizedUpdate is an adaptive update whose replica holds one block of
// maxFrameLen bytes, so that its frame cannot be sent. The block is never
// read — decoding takes a view of it, a sender only its length — and so never
// costs the memory it spans; it is built once per test binary.
var oversizedUpdate = sync.OnceValue(func() []byte {
	var w register.WireWriter
	w.Int(1)
	w.TS(register.Timestamp{Num: 3, Client: 1})
	w.TS(register.ZeroTS)
	w.Chunk(register.Chunk{})
	head := binary.BigEndian.AppendUint32(w.Finish(), 1) // one chunk in the replica
	head = append(head, make([]byte, 24)...)             // its timestamp and index
	head = binary.BigEndian.AppendUint32(head, maxFrameLen)
	payload := make([]byte, len(head)+maxFrameLen+24) // the block, and the chunk's source tag
	copy(payload, head)
	return payload
})

// TestOversizedRequestFailsAlone: a request whose frame would exceed
// maxFrameLen is refused where it is built, as the failure of that one call.
// Sent, the server would reject its length and drop the connection, and every
// call in flight on it — here a whole round of another client's, parked behind
// object 0 — would fail as lost. The round the oversized request belongs to
// goes on with its other targets.
func TestOversizedRequestFailsAlone(t *testing.T) {
	fx := newRoundFixture(t)
	if err := fx.read(t); err != nil { // dials the connection
		t.Fatal(err)
	}
	conn := fx.cli.slots[0].conn
	inFlight := func() int {
		conn.pmu.Lock()
		defer conn.pmu.Unlock()
		return len(conn.pending)
	}
	release := fx.park(t)
	parked := make(chan error, 1)
	go func() { parked <- fx.read(t) }()
	for deadline := time.Now().Add(10 * time.Second); inFlight() < roundTargets; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the parked round never got its requests in flight")
		}
	}

	oversized := rmwOf(t, "adaptive.update", oversizedUpdate())(1)
	small := abdUpdate(t)
	mixed := func(obj int) dsys.RMW {
		if obj == 1 {
			return oversized
		}
		return small(obj)
	}
	type outcome struct {
		resp map[int]any
		err  error
	}
	round := func(quorum int) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			resp, err := fx.cli.InvokeRound(context.Background(), 2, []int{1, 2, 3}, mixed, quorum)
			ch <- outcome{resp, err}
		}()
		return ch
	}
	enough, short := round(2), round(3)
	release()
	if err := <-parked; err != nil {
		t.Errorf("the round in flight beside the oversized request: %v", err)
	}
	if got := <-enough; got.err != nil || len(got.resp) != 2 || got.resp[1] != nil {
		t.Errorf("the oversized request's round, needing its two other targets: %d responses, %v", len(got.resp), got.err)
	}
	if got := <-short; !errors.Is(got.err, dsys.ErrQuorumUnavailable) || !strings.Contains(got.err.Error(), ErrFrameTooLarge.Error()) || len(got.resp) != 2 {
		t.Errorf("the oversized request's round, needing all three: %d responses, %v; want ErrQuorumUnavailable naming %q", len(got.resp), got.err, ErrFrameTooLarge)
	}
	if fx.cli.slots[0].conn != conn || conn.dead.Load() {
		t.Error("the connection did not survive the oversized request")
	}
}

// TestCloseDuringRoundDialsNothing: a client closed while one of its rounds is
// between targets is left with no connection. The round's second target closes
// the client from makeRMW — after the round's own check, before it dials that
// target's node — and the node is not dialed: Close has already emptied the
// slots, so nobody would close what a dial left there. The stub nodes never
// hang up, so such a connection would also fail the package's leak check.
func TestCloseDuringRoundDialsNothing(t *testing.T) {
	cli, err := Dial([]string{stubNode(t, nil), stubNode(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	read := abdRead(t)
	makeRMW := func(obj int) dsys.RMW {
		if obj == 1 {
			_ = cli.Close()
		}
		return read(obj)
	}
	if _, err := cli.InvokeRound(context.Background(), 1, []int{0, 1}, makeRMW, 2); !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("a round whose client closed under it: err = %v, want ErrQuorumUnavailable", err)
	}
	for node, slot := range cli.slots {
		slot.mu.Lock()
		conn := slot.conn
		slot.mu.Unlock()
		if conn != nil {
			t.Errorf("node %d holds a connection (dead = %v) after Close", node, conn.dead.Load())
		}
	}
}

// brokenJournal refuses every RMW that is not read-only, as a journal whose
// disk has failed does.
type brokenJournal struct{}

func (brokenJournal) RecordApply(int, dsys.RMW)                      {}
func (brokenJournal) RecordApplyTraced(int, dsys.RMW, trace.Context) {}
func (brokenJournal) DurableBlocks() []storagecost.BlockInfo         { return nil }
func (brokenJournal) Refuses(rmw dsys.RMW) error {
	if kind, _ := register.KindOf(rmw); register.KindReadOnly(kind) {
		return nil
	}
	return errors.New("wal: fsync: input/output error")
}

// TestRoundFailureNamesTheNode: a refusal that arrives as a wire status is
// attributed to the node that sent it — in the RemoteError a round keeps as
// its last failure, through which errors.Is still reaches the dsys sentinel,
// and so in the message of the round that could not reach its quorum.
func TestRoundFailureNamesTheNode(t *testing.T) {
	cases := []struct {
		status   dsys.Status
		sentinel error
		opts     []ServerOption
		arrange  func(fx *roundFixture)
		makeRMW  func(testing.TB) func(int) dsys.RMW
	}{
		{
			status: dsys.StatusObjectDown, sentinel: dsys.ErrObjectDown, makeRMW: abdRead,
			arrange: func(fx *roundFixture) {
				for _, obj := range fx.targets {
					if err := fx.cluster.CrashObject(obj); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{status: dsys.StatusRecovering, sentinel: dsys.ErrRecovering, makeRMW: abdRead, opts: []ServerOption{WithRecovery()}},
		{
			status: dsys.StatusJournalFailed, sentinel: dsys.ErrJournalFailed, makeRMW: abdUpdate,
			arrange: func(fx *roundFixture) { fx.cluster.SetJournal(brokenJournal{}) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.status.String(), func(t *testing.T) {
			const node = "node-7.example:7000"
			msg := roundMsg{call: &pendingCall{conn: &clientConn{addr: node}}, resp: dsys.Response{Status: tc.status}}
			_, err := msg.outcome()
			var remote *RemoteError
			if !errors.As(err, &remote) || remote.Node != node {
				t.Fatalf("outcome of a %v response = %v, want a RemoteError naming %s", tc.status, err, node)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}

			fx := newRoundFixture(t, tc.opts...)
			if tc.arrange != nil {
				tc.arrange(fx)
			}
			_, err = fx.cli.InvokeRound(context.Background(), 1, fx.targets, tc.makeRMW(t), 2)
			if !errors.Is(err, dsys.ErrQuorumUnavailable) {
				t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
			}
			if want := (&RemoteError{Node: fx.addr, Err: tc.sentinel}).Error(); !strings.Contains(err.Error(), want) {
				t.Errorf("err = %q, want it to contain %q", err, want)
			}
		})
	}
}

// TestUnregisteredKindIsBadRequest: a frame naming a kind no codec registered
// decodes — by the allocating path, the kind table knows only registered
// kinds — and is answered StatusBadRequest.
func TestUnregisteredKindIsBadRequest(t *testing.T) {
	fx := newRoundFixture(t)
	conn, err := net.Dial("tcp", fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	env := dsys.Envelope{Op: dsys.OpID{Client: 1}, Object: 0, Kind: "nobody.registered.this", Payload: []byte("x")}
	sent, err := env.MarshalBinary()
	if _, err := conn.Write(flatFrame(t, 99, sent, err)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	body, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dsys.UnmarshalResponse(body[8:])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != dsys.StatusBadRequest || !strings.Contains(resp.Detail, env.Kind) {
		t.Fatalf("answered %v (%q), want bad-request naming the kind", resp.Status, resp.Detail)
	}
}

// BenchmarkInvokeRound is the ladder's transport row: one full-quorum read
// round of 64-byte abd objects over loopback TCP, client and server in one
// process, so allocs/op counts both sides of the wire.
//
// The piece rows are an update round instead, every request carrying one block
// that the sender hands to the socket by reference: 512 bytes, the shortest it
// does not copy (register's refMinLen), and 16 KiB, the tcp-large piece. Every
// round sends the same update, which the objects stored on the first round and
// drop since, so the server copies no block: B/op is the round's bookkeeping
// on both sides of the wire.
func BenchmarkInvokeRound(b *testing.B) {
	for _, bc := range []struct {
		name    string
		makeRMW func(testing.TB) func(int) dsys.RMW
	}{
		{"targets-4", abdRead},
		{"targets-4/piece-512B", func(tb testing.TB) func(int) dsys.RMW { return abdUpdateOf(tb, 512) }},
		{"targets-4/piece-16KiB", func(tb testing.TB) func(int) dsys.RMW { return abdUpdateOf(tb, 16<<10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fx := newRoundFixture(b)
			makeRMW := bc.makeRMW(b)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fx.cli.InvokeRound(ctx, 1, fx.targets, makeRMW, roundTargets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// remoteShapes are the shapes of the remote-operation ladder row and pins:
// tcp-small's — 1 KiB values, f = 1, k = 2 — where a write is a few round
// trips of small frames, and tcp-large's — 64 KiB values, f = 2, k = 4 —
// where it is the code and the copies. write and read are what
// TestRemoteOperationAllocations lets an operation allocate, client and
// server together, and the parent fields what this build's parent measured.
var remoteShapes = []struct {
	name                    string
	f, k, size              int
	write, read             float64
	writeParent, readParent int
}{
	{"1KiB-f1-k2", 1, 2, 1 << 10, 11, 2, 11, 3},
	{"64KiB-f2-k4", 2, 4, 64 << 10, 18, 8, 18, 9},
}

// openRemoteAdaptive serves an adaptive shard of the given shape over
// loopback TCP from this process and returns the remote set that talks to it
// and a written value; both sides close when tb ends.
func openRemoteAdaptive(tb testing.TB, f, k, size int) (*shard.Set, value.Value) {
	tb.Helper()
	specs := []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: f, K: k, DataLen: size}}}
	backing, err := shard.New(specs)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(backing.Close)
	srv := NewServer(backing.Cluster())
	tb.Cleanup(func() { _ = srv.Close() })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	cli, err := Dial([]string{addr.String()})
	if err != nil {
		tb.Fatal(err)
	}
	rs, err := shard.NewRemote(specs, cli) // closes cli
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rs.Close)
	v := value.Sequenced(1, 1, size)
	if err := rs.WriteValue(1, rs.Shards()[0], v); err != nil { // dial, and leave a value to read
		tb.Fatal(err)
	}
	return rs, v
}

// TestRemoteOperationAllocations pins what one quiescent adaptive write and
// read through shard.NewRemote allocate over loopback TCP, both sides of the
// wire counted, at BenchmarkAdaptiveOverTCP's two shapes. A write keeps the
// value's blocks, the nodes' copies of the pieces they store and its rounds'
// RMW arrays: the remote engine lends no round memory, as a RoundInvoker may
// keep what it is handed. A read keeps its round's RMW array and the value,
// and at 64 KiB the frame of each answer that carries a piece, too large for
// the client's slab; the oracle's block list is memory the client handle
// lends the read (dsys.OpMemory). No round keeps its result map: the remote
// engine gives it back to dsys.RoundResult's pool. Neither
// builds a closure per operation (the shard layer's pooled op), a read's
// answers decode into the round's header windows, its reconstruction inverts
// no matrix the code has inverted before, and a write lists its held blocks
// on its stack. A change that moves a count must say why.
func TestRemoteOperationAllocations(t *testing.T) {
	for _, shape := range remoteShapes {
		t.Run(shape.name, func(t *testing.T) {
			rs, v := openRemoteAdaptive(t, shape.f, shape.k, shape.size)
			sh := rs.Shards()[0]
			write := func() {
				if err := rs.WriteValue(1, sh, v); err != nil {
					t.Fatal(err)
				}
			}
			read := func() {
				if _, err := rs.ReadValue(2, sh); err != nil {
					t.Fatal(err)
				}
			}
			read()
			if got, want := testing.AllocsPerRun(300, write), shape.write+opPoolDropAllocs; got > want {
				t.Errorf("a remote write allocates %.1f times, want at most %.0f (its parent measured %d)", got, want, shape.writeParent)
			}
			if got, want := testing.AllocsPerRun(300, read), shape.read+opPoolDropAllocs; got > want {
				t.Errorf("a remote read allocates %.1f times, want at most %.0f (its parent measured %d)", got, want, shape.readParent)
			}
		})
	}
}

// BenchmarkAdaptiveOverTCP is the ladder's whole-operation row: one adaptive
// write or read through shard.NewRemote over loopback TCP, one client and one
// server hosting every object in one process, so B/op and allocs/op count both
// sides of the wire, at remoteShapes. The register is quiescent: a write is
// the query and update rounds it waits for, and a GC round it posts; a read
// is one round.
func BenchmarkAdaptiveOverTCP(b *testing.B) {
	for _, shape := range remoteShapes {
		for _, op := range []string{"write", "read"} {
			b.Run(op+"/"+shape.name, func(b *testing.B) {
				rs, v := openRemoteAdaptive(b, shape.f, shape.k, shape.size)
				sh := rs.Shards()[0]
				do := func() error { return rs.WriteValue(1, sh, v) }
				if op == "read" {
					do = func() error { _, err := rs.ReadValue(2, sh); return err }
				}
				b.SetBytes(int64(shape.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := do(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
