package transport_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/shard"
	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
)

// TestTCPTracingStitchesAcrossProcesses runs a traced remote set against a
// TCP server over a cluster with its own tracer — the two-recorder shape of a
// real deployment — and asserts the cross-process contract: the client records op,
// round, and rpc spans; the server records apply spans on the *client's*
// trace IDs, every one parented under a client rpc span ID it never saw
// except on the wire — including the apply of a straggler whose round stopped
// waiting at its quorum, which parents under an rpc span noted abandoned, and
// of an adaptive write's GC, which is posted and parents under an rpc span
// recorded at send time; and an untraced client leaves the server recorder
// empty (v1 frames carry no context).
func TestTCPTracingStitchesAcrossProcesses(t *testing.T) {
	srvTr := trace.New(trace.Options{Sample: 1, Proc: "server", Node: 0})
	backing, err := shard.New(specsFor(t), dsys.WithTracer(srvTr))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	_, addr := startServer(t, backing)

	cliTr := trace.New(trace.Options{Sample: 1, Proc: "client", Node: -1})
	cli, err := transport.Dial([]string{addr}, transport.WithTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.NewRemote(specsFor(t), cli, dsys.WithTracer(cliTr))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	exerciseRemote(t, rs)

	// Force a straggler. The server serves a connection's requests in order,
	// so holding the apply lock of the round's last target parks exactly that
	// request while the others answer; the round reaches its quorum of two and
	// returns, and only then does the third apply run.
	straggler := cliTr.Begin()
	held, release := make(chan struct{}), make(chan struct{})
	parked := make(chan error, 1)
	go func() {
		parked <- backing.Cluster().ReadObjectState(2, func(dsys.State) {
			close(held)
			<-release
		})
	}()
	<-held
	ctx := trace.NewContext(context.Background(), straggler)
	if _, err := cli.InvokeRound(ctx, 9, []int{0, 1, 2}, mkReadRMW(t), 2); err != nil {
		t.Fatalf("round with a parked straggler: %v", err)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	stragglerApplies := func() (n int) {
		for _, s := range srvTr.Snapshot() {
			if s.Trace == straggler.Trace {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); stragglerApplies() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("server recorded %d of the straggler round's 3 applies", stragglerApplies())
		}
		time.Sleep(time.Millisecond)
	}

	rpcIDs := make(map[uint64]bool)
	traces := map[uint64]bool{straggler.Trace: true}
	var rounds, rpcs, abandoned, posted int
	for _, s := range cliTr.Snapshot() {
		switch s.Stage {
		case trace.StageOp:
			traces[s.Trace] = true
		case trace.StageRound:
			rounds++
		case trace.StageRPC:
			rpcs++
			rpcIDs[s.ID] = true
			switch s.Note {
			case addr:
			case addr + " abandoned":
				if s.Trace == straggler.Trace {
					abandoned++
				}
			case addr + " posted":
				posted++
			default:
				t.Errorf("rpc span noted %q, want the node address %q", s.Note, addr)
			}
		}
	}
	if abandoned != 1 {
		t.Errorf("the straggler round recorded %d abandoned rpc spans, want 1", abandoned)
	}
	if posted == 0 {
		t.Error("no rpc span noted posted: the adaptive write's GC round records one per request at send time")
	}
	if len(traces) == 0 || rounds == 0 || rpcs == 0 {
		t.Fatalf("client recorded %d traces, %d rounds, %d rpcs; want all three stages",
			len(traces), rounds, rpcs)
	}
	if _, ok := cliTr.Exemplars()["spacebounds_transport_rpc_seconds"]; !ok {
		t.Error("no rpc latency exemplar on the client tracer")
	}

	applies := 0
	for _, s := range srvTr.Snapshot() {
		if s.Stage != trace.StageApply {
			t.Errorf("server recorded a %s span; servers only own the apply stage", s.Stage)
			continue
		}
		applies++
		if !traces[s.Trace] {
			t.Errorf("apply span on trace %016x, which no client op started", s.Trace)
		}
		if !rpcIDs[s.Parent] {
			t.Errorf("apply span parent %016x is not a client rpc span", s.Parent)
		}
	}
	if applies == 0 {
		t.Fatal("server recorded no apply spans from traced requests")
	}

	// An untraced client sends v1 frames: the server's recorder stays quiet.
	cli2, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := shard.NewRemote(specsFor(t), cli2)
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	before := len(srvTr.Snapshot())
	exerciseRemote(t, rs2)
	if after := len(srvTr.Snapshot()); after != before {
		t.Errorf("untraced client produced %d server spans", after-before)
	}
}

// TestTCPTracingRecordsLostRPCs covers the third way an rpc span ends: the
// node reads the request and the connection fails before it answers. Every
// request of the traced round must still yield one recorded rpc span, noted
// "<addr> lost" and feeding no latency exemplar — the node may have recorded
// an apply span under that ID — and an untraced round on the same failing
// path records nothing.
func TestTCPTracingRecordsLostRPCs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const requests = 3
	go func() {
		// Per connection: read `requests` whole frames, then hang up.
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			for i := 0; i < requests; i++ {
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					break
				}
				if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[:]))); err != nil {
					break
				}
			}
			conn.Close()
		}
	}()
	addr := ln.Addr().String()

	tr := trace.New(trace.Options{Sample: 1, Proc: "client", Node: -1})
	cli, err := transport.Dial([]string{addr}, transport.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	targets := []int{0, 1, 2}
	if _, err := cli.InvokeRound(context.Background(), 1, targets, mkReadRMW(t), 2); !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("untraced round against a node that hangs up = %v, want ErrQuorumUnavailable", err)
	}
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("untraced round recorded %d spans", n)
	}

	tc := tr.Begin()
	ctx := trace.NewContext(context.Background(), tc)
	if _, err := cli.InvokeRound(ctx, 1, targets, mkReadRMW(t), 2); !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("traced round against a node that hangs up = %v, want ErrQuorumUnavailable", err)
	}
	lost := 0
	for _, s := range tr.Snapshot() {
		if s.Stage != trace.StageRPC || s.Trace != tc.Trace {
			t.Errorf("unexpected span %+v", s)
			continue
		}
		if s.Note != addr+" lost" {
			t.Errorf("rpc span noted %q, want %q", s.Note, addr+" lost")
		}
		lost++
	}
	if lost != requests {
		t.Errorf("recorded %d lost rpc spans, want one per request (%d)", lost, requests)
	}
	if _, ok := tr.Exemplars()["spacebounds_transport_rpc_seconds"]; ok {
		t.Error("a lost rpc fed the served-response latency exemplar")
	}
}
