package transport_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"

	// Link all four providers: their registers and wire codecs.
	_ "spacebounds/internal/register/abd"
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
)

// allAlgorithms covers every provider, each with erasure coding where the
// algorithm supports k > 1.
var allAlgorithms = []struct {
	name string
	f, k int
}{
	{"abd", 1, 1},
	{"safereg", 1, 1},
	{"ecreg", 1, 2},
	{"adaptive", 1, 2},
}

func specsFor(t *testing.T) []shard.Spec {
	t.Helper()
	specs := make([]shard.Spec, len(allAlgorithms))
	for i, a := range allAlgorithms {
		specs[i] = shard.Spec{
			Name:      fmt.Sprintf("%s-shard", a.name),
			Algorithm: a.name,
			Config:    register.Config{F: a.f, K: a.k, DataLen: 64},
		}
	}
	return specs
}

// exerciseRemote writes and reads every shard of the remote set and verifies
// read-your-write through whatever transport backs it.
func exerciseRemote(t *testing.T, rs *shard.Set) {
	t.Helper()
	for i, sh := range rs.Shards() {
		want := value.Sequenced(i+1, 1, 64)
		if err := rs.WriteValue(i+1, sh, want); err != nil {
			t.Fatalf("%s: write: %v", sh.Name, err)
		}
		got, err := rs.ReadValue(i+1, sh)
		if err != nil {
			t.Fatalf("%s: read: %v", sh.Name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: read %v, wrote %v", sh.Name, got, want)
		}
	}
}

// TestLoopbackRemoteSet runs the four register emulations over the loopback
// transport: every RMW and response crosses the wire format, the local live
// engine applies them.
func TestLoopbackRemoteSet(t *testing.T) {
	backing, err := shard.New(specsFor(t))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	rs, err := shard.NewRemote(specsFor(t), transport.NewLoopback(backing.Cluster()))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	exerciseRemote(t, rs)
}

// startServer serves the backing cluster on an ephemeral port.
func startServer(t *testing.T, backing *shard.Set, opts ...transport.ServerOption) (*transport.Server, string) {
	t.Helper()
	srv := transport.NewServer(backing.Cluster(), opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr.String()
}

// TestTCPRemoteSet runs the four register emulations against a real TCP
// server hosting all base objects in one process.
func TestTCPRemoteSet(t *testing.T) {
	backing, err := shard.New(specsFor(t))
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	_, addr := startServer(t, backing)

	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.NewRemote(specsFor(t), cli)
	if err != nil {
		t.Fatal(err)
	}
	exerciseRemote(t, rs)
	// Closing the remote set must close the transport it owns.
	rs.Close()
	if _, err := cli.InvokeRound(context.Background(), 1, []int{0}, mkReadRMW(t), 1); err == nil {
		t.Fatalf("invoke on closed client succeeded")
	}
}

// mkReadRMW builds abd read RMWs through the codec registry (the provider's
// RMW types are unexported).
func mkReadRMW(t *testing.T) func(obj int) dsys.RMW {
	t.Helper()
	c, ok := register.CodecByKind("abd.read")
	if !ok {
		t.Fatal("abd.read codec not registered")
	}
	return func(obj int) dsys.RMW {
		rmw, err := c.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return rmw
	}
}

// mkUpdateRMW builds abd update RMWs carrying a chunk.
func mkUpdateRMW(t *testing.T) func(obj int) dsys.RMW {
	t.Helper()
	c, ok := register.CodecByKind("abd.update")
	if !ok {
		t.Fatal("abd.update codec not registered")
	}
	var w register.WireWriter
	w.Chunk(register.Chunk{TS: register.Timestamp{Num: 3, Client: 1}})
	payload := w.Finish()
	return func(obj int) dsys.RMW {
		rmw, err := c.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		return rmw
	}
}

// abdSpec is a single 3-object abd shard.
func abdSpec() []shard.Spec {
	return []shard.Spec{{Name: "s", Algorithm: "abd", Config: register.Config{F: 1, K: 1, DataLen: 64}}}
}

// TestRecoveryModeGatesReads starts the server in recovery mode: read-only
// RMW kinds are refused per object until a mutating RMW has applied there.
func TestRecoveryModeGatesReads(t *testing.T) {
	backing, err := shard.New(abdSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	_, addr := startServer(t, backing, transport.WithRecovery())

	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	targets := []int{0, 1, 2}

	// Reads are refused while every object is unrepaired.
	if _, err := cli.InvokeRound(ctx, 1, targets, mkReadRMW(t), 2); !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("read round on recovering node: err = %v, want ErrQuorumUnavailable", err)
	}
	// A mutating round applies and repairs the objects...
	if _, err := cli.InvokeRound(ctx, 1, targets, mkUpdateRMW(t), 3); err != nil {
		t.Fatalf("update round: %v", err)
	}
	// ...after which reads are served again.
	resp, err := cli.InvokeRound(ctx, 1, targets, mkReadRMW(t), 3)
	if err != nil {
		t.Fatalf("read round after repair: %v", err)
	}
	for obj, raw := range resp {
		c, ok := raw.(register.Chunk)
		if !ok {
			t.Fatalf("object %d: response %T, want Chunk", obj, raw)
		}
		if c.TS.Num != 3 {
			t.Fatalf("object %d: TS.Num = %d, want 3", obj, c.TS.Num)
		}
	}
}

// TestRecoveryModeGatesTimestampQuery: the adaptive write's query round is
// read-only like the read round, so a recovering node refuses it per object —
// an unrepaired object would answer with timestamps it no longer remembers —
// until an update has applied there, and then answers with that update's.
func TestRecoveryModeGatesTimestampQuery(t *testing.T) {
	specs := []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 16 << 10}}}
	backing, err := shard.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	_, addr := startServer(t, backing, transport.WithRecovery())
	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	c, _ := register.CodecByKind("adaptive.readts")
	query, err := c.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	mkQuery := func(int) dsys.RMW { return query }
	targets := []int{0, 1, 2, 3}

	_, err = cli.InvokeRound(ctx, 1, targets, mkQuery, 3)
	if !errors.Is(err, dsys.ErrQuorumUnavailable) || !strings.Contains(err.Error(), dsys.ErrRecovering.Error()) {
		t.Fatalf("timestamp query on a recovering node: err = %v, want ErrQuorumUnavailable over ErrRecovering", err)
	}
	// Objects 0 and 1 are repaired by an update; 2 and 3 stay refused.
	if _, err := cli.InvokeRound(ctx, 1, targets[:2], adaptiveUpdate(t, 7, 1, 0x11), 2); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.InvokeRound(ctx, 1, targets, mkQuery, 2)
	if err != nil {
		t.Fatalf("timestamp query after repair: %v", err)
	}
	if _, ok := resp[2]; ok || len(resp) != 2 {
		t.Fatalf("answers from objects %v, want exactly the repaired 0 and 1", resp)
	}
	for obj, raw := range resp {
		payload, err := register.EncodeResponse("adaptive.readts", raw)
		if err != nil {
			t.Fatal(err)
		}
		r := register.NewWireReader(payload)
		if storedTS, maxNum := r.TS(), r.Int(); storedTS != register.ZeroTS || maxNum != 7 || r.Finish() != nil {
			t.Fatalf("object %d answered (%v, %d), want (%v, 7)", obj, storedTS, maxNum, register.ZeroTS)
		}
		if len(payload) > 64 {
			t.Fatalf("a timestamp answer of %d bytes", len(payload))
		}
	}
}

// brokenJournal is a journal whose disk may fail: from then on it refuses
// every kind that is not read-only, as wal.Journal does.
type brokenJournal struct{ broken atomic.Bool }

func (j *brokenJournal) RecordApply(int, dsys.RMW)                      {}
func (j *brokenJournal) RecordApplyTraced(int, dsys.RMW, trace.Context) {}
func (j *brokenJournal) DurableBlocks() []storagecost.BlockInfo         { return nil }
func (j *brokenJournal) Refuses(rmw dsys.RMW) error {
	if kind, _ := register.KindOf(rmw); !j.broken.Load() || register.KindReadOnly(kind) {
		return nil
	}
	return errors.New("wal: fsync: input/output error")
}

// TestFailedJournalStatus: a node whose journal has failed answers updates
// with the journal-failed status — which the client counts as no answer, under
// dsys.ErrJournalFailed — and keeps serving reads of what it holds.
func TestFailedJournalStatus(t *testing.T) {
	backing, err := shard.New(abdSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	journal := &brokenJournal{}
	backing.Cluster().SetJournal(journal)
	_, addr := startServer(t, backing)
	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	targets := []int{0, 1, 2}

	if _, err := cli.InvokeRound(ctx, 1, targets, mkUpdateRMW(t), 3); err != nil {
		t.Fatalf("update round on a healthy journal: %v", err)
	}
	journal.broken.Store(true)
	resp, err := cli.InvokeRound(ctx, 1, targets, mkUpdateRMW(t), 2)
	if !errors.Is(err, dsys.ErrQuorumUnavailable) || !strings.Contains(err.Error(), dsys.ErrJournalFailed.Error()) || len(resp) != 0 {
		t.Fatalf("update round on a failed journal: %d answers, err = %v; want ErrQuorumUnavailable over ErrJournalFailed", len(resp), err)
	}
	resp, err = cli.InvokeRound(ctx, 1, targets, mkReadRMW(t), 3)
	if err != nil {
		t.Fatalf("read round on a failed journal: %v", err)
	}
	for obj, raw := range resp {
		if c := raw.(register.Chunk); c.TS.Num != 3 {
			t.Fatalf("object %d: TS.Num = %d, want the acknowledged update's 3", obj, c.TS.Num)
		}
	}
}

// TestPartialHostingStatus verifies the NotHosted status path: a server
// hosting only its placement's objects refuses the rest, and a client with
// the matching placement never sends them there.
func TestPartialHostingStatus(t *testing.T) {
	backing, err := shard.New(abdSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	// Host only object 0 on this server.
	_, addr := startServer(t, backing, transport.WithHosts(func(obj int) bool { return obj == 0 }))

	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	// Object 0 is served; objects 1 and 2 come back NotHosted, so a quorum of
	// 2 cannot form and the partial result carries object 0 only.
	resp, err := cli.InvokeRound(ctx, 1, []int{0, 1, 2}, mkUpdateRMW(t), 2)
	if !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
	}
	if _, ok := resp[0]; !ok || len(resp) != 1 {
		t.Fatalf("partial responses = %v, want exactly object 0", resp)
	}
}

// TestContextCancellation verifies a canceled context fails the round
// immediately with the quorum sentinel on TCP and the context error on
// loopback.
func TestContextCancellation(t *testing.T) {
	backing, err := shard.New(abdSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	lb := transport.NewLoopback(backing.Cluster())
	if _, err := lb.InvokeRound(ctx, 1, []int{0}, mkReadRMW(t), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("loopback: err = %v, want context.Canceled", err)
	}

	_, addr := startServer(t, backing)
	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.InvokeRound(ctx, 1, []int{0, 1, 2}, mkReadRMW(t), 2); !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("tcp: err = %v, want ErrQuorumUnavailable", err)
	}
}

// TestServerDownQuorum verifies that rounds against a dead address (a refused
// port, so the dial fails at once) fail fast with the quorum sentinel and a
// RemoteError cause, and that errors.Is still reaches ErrStuck (the
// pre-redesign sentinel the simulator tests use).
func TestServerDownQuorum(t *testing.T) {
	cli, err := transport.Dial([]string{"127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.InvokeRound(context.Background(), 1, []int{0, 1, 2}, mkReadRMW(t), 2)
	if !errors.Is(err, dsys.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
	}
	if !errors.Is(err, dsys.ErrStuck) {
		t.Fatalf("err = %v, want it to also match ErrStuck", err)
	}
}

// TestShardSentinels spot-checks the errors.Is-able sentinels on the shard
// facade.
func TestShardSentinels(t *testing.T) {
	backing, err := shard.New(abdSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	if err := backing.RetireShard("nope"); !errors.Is(err, shard.ErrUnknownShard) {
		t.Fatalf("RetireShard: err = %v, want ErrUnknownShard", err)
	}
	if err := backing.CrashNode("nope", 0); !errors.Is(err, shard.ErrUnknownShard) {
		t.Fatalf("CrashNode: err = %v, want ErrUnknownShard", err)
	}
}

// TestLayoutPlacementAgreement verifies that client placement and server
// hosting predicates derived from one Layout agree, and that a span-n shard
// lands on n distinct nodes when nodes >= span.
func TestLayoutPlacementAgreement(t *testing.T) {
	l := transport.Layout{Algorithm: "abd", Shards: 3, F: 1, K: 1, ValueSize: 64}
	specs, err := l.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || l.TotalObjects() != 9 {
		t.Fatalf("specs = %d, total = %d", len(specs), l.TotalObjects())
	}
	const nodes = 4
	p := transport.RoundRobin(nodes)
	for obj := 0; obj < l.TotalObjects(); obj++ {
		node := p(obj)
		hosted := 0
		for n := 0; n < nodes; n++ {
			if l.HostedBy(nodes, n)(obj) {
				hosted++
				if n != node {
					t.Fatalf("object %d: placed on %d but hosted by %d", obj, node, n)
				}
			}
		}
		if hosted != 1 {
			t.Fatalf("object %d hosted by %d nodes", obj, hosted)
		}
	}
	// Each shard's objects must land on span distinct nodes, so one node
	// failure costs at most one object per shard.
	for s := 0; s < l.Shards; s++ {
		seen := map[int]bool{}
		for i := 0; i < l.Span(); i++ {
			seen[p(s*l.Span()+i)] = true
		}
		if len(seen) != l.Span() {
			t.Fatalf("shard %d spread over %d nodes, want %d", s, len(seen), l.Span())
		}
	}
}

// TestTCPMultiNode splits one abd shard's three objects across three server
// processes' worth of clusters... not quite: one backing cluster, three
// servers each hosting one object, a client placing by round-robin. This
// exercises the real fan-out path: one round, three connections, and a kill
// of one server still leaves 2-of-3 quorums formable.
func TestTCPMultiNode(t *testing.T) {
	backing, err := shard.New(abdSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()

	const nodes = 3
	addrs := make([]string, nodes)
	srvs := make([]*transport.Server, nodes)
	for n := 0; n < nodes; n++ {
		node := n
		srvs[n], addrs[n] = startServer(t, backing,
			transport.WithHosts(func(obj int) bool { return obj%nodes == node }))
	}
	cli, err := transport.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.NewRemote(abdSpec(), cli)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sh := rs.Shards()[0]

	want := value.Sequenced(1, 1, 64)
	if err := rs.WriteValue(1, sh, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Kill one node: 2-of-3 quorums must still form.
	_ = srvs[2].Close()
	got, err := rs.ReadValue(1, sh)
	if err != nil {
		t.Fatalf("read with one node down: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	want2 := value.Sequenced(1, 2, 64)
	if err := rs.WriteValue(1, sh, want2); err != nil {
		t.Fatalf("write with one node down: %v", err)
	}
	got, err = rs.ReadValue(1, sh)
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	if !got.Equal(want2) {
		t.Fatalf("read %v, want %v", got, want2)
	}
}
