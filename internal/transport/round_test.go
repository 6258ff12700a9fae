package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/abd"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/value"
)

// requestFrame frames one envelope in a buffer of its own, as a round of one
// target does.
func requestFrame(reqID uint64, env dsys.Envelope) (frame, error) {
	return appendRequestFrame(make([]byte, 0, requestFrameRoom(env)), reqID, env)
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
	reg, err := abd.New(register.Config{F: 1, K: 1, DataLen: 64})
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

func abdRead(tb testing.TB) func(int) dsys.RMW { return rmwOf(tb, "abd.read", nil) }

func abdUpdate(tb testing.TB) func(int) dsys.RMW {
	var w register.WireWriter
	w.Chunk(register.Chunk{TS: register.Timestamp{Num: 3, Client: 1}})
	return rmwOf(tb, "abd.update", w.Finish())
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

// Allocations of one 4-target round over loopback TCP, client and server
// sides together: what this build measures, and what its parent did.
const (
	roundAllocs       = 34
	roundAllocsParent = 52
)

// TestRoundAllocations pins what a quorum round allocates. The round's own
// bookkeeping is per round — one call array, one head buffer, one channel,
// one result map, no context and no timer — so what remains per target is the
// codec's payloads and the frames read off the socket.
func TestRoundAllocations(t *testing.T) {
	fx := newRoundFixture(t)
	makeRMW := abdRead(t)
	round := func() {
		if _, err := fx.cli.InvokeRound(context.Background(), 1, fx.targets, makeRMW, roundTargets); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := testing.AllocsPerRun(500, round); got > roundAllocs {
		t.Errorf("a %d-target round allocates %.1f times, want at most %d (the parent of PR 22 measured %d)",
			roundTargets, got, roundAllocs, roundAllocsParent)
	}
}

// brokenJournal refuses every RMW that is not read-only, as a journal whose
// disk has failed does.
type brokenJournal struct{}

func (brokenJournal) RecordApply(int, dsys.RMW)              {}
func (brokenJournal) DurableBlocks() []storagecost.BlockInfo { return nil }
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
	f, err := requestFrame(99, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&net.Buffers{f.head, f.payload, f.tail}).WriteTo(conn); err != nil {
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
func BenchmarkInvokeRound(b *testing.B) {
	b.Run("targets-4", func(b *testing.B) {
		fx := newRoundFixture(b)
		makeRMW := abdRead(b)
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
