package transport_test

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
)

// countingInvoker adds up the payload bytes a round's requests put on the
// socket, and the responses it gets back: each is written the way a sender
// writes it — blocks by reference — and what is counted is the segments that
// writer hands the vectored write, every one of them.
type countingInvoker struct {
	inner dsys.RoundInvoker
	t     *testing.T
	w     register.WireWriter

	requests, responses int
	perKind             map[string]int
	rounds              []countedRound
}

// countedRound is one round as the invoker saw it: whom it was addressed to,
// the kind of request and the request-payload bytes sent each of them (none
// for an object that is down), and the response-payload bytes each answered.
type countedRound struct {
	targets  []int
	kinds    map[int]string
	bytes    map[int]int
	answered map[int]int
}

// kind is the round's kind when its requests share one: the kinds it mixes,
// sorted and joined by "+", otherwise.
func (r countedRound) kind() string {
	return strings.Join(slices.Compact(slices.Sorted(maps.Values(r.kinds))), "+")
}

// socketBytes writes v with write as a sender does and returns the length of
// what would reach the socket.
func socketBytes[T any](c *countingInvoker, write func(*register.WireWriter, T) error, v T) (n int) {
	c.w.Reset(nil, true)
	if err := write(&c.w, v); err != nil {
		c.t.Error(err)
	}
	for _, seg := range c.w.Segments(nil) {
		n += len(seg)
	}
	return n
}

func (c *countingInvoker) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	round := countedRound{targets: slices.Clone(targets), kinds: map[int]string{}, bytes: map[int]int{}, answered: map[int]int{}}
	resp, err := c.inner.InvokeRound(ctx, client, targets, func(obj int) dsys.RMW {
		rmw := makeRMW(obj)
		codec, ok := register.CodecOf(rmw)
		if !ok {
			c.t.Errorf("no codec for %T", rmw)
		}
		round.kinds[obj] = codec.Kind // a round may mix kinds
		round.bytes[obj] = socketBytes(c, codec.Write, rmw)
		c.requests += round.bytes[obj]
		c.perKind[codec.Kind] += round.bytes[obj]
		return rmw
	}, quorum)
	for obj, v := range resp {
		codec, _ := register.CodecByKind(round.kinds[obj])
		round.answered[obj] = socketBytes(c, codec.WriteResp, v)
		c.responses += round.answered[obj]
		c.perKind[codec.Kind+" response"] += round.answered[obj]
	}
	c.rounds = append(c.rounds, round)
	return resp, err
}

// countedRegister is one adaptive register in an in-process cluster and a
// remote set that reaches it through the loopback transport under a
// countingInvoker.
func countedRegister(t *testing.T, f, k, dataLen int) (backing *shard.Set, counter *countingInvoker, rs *shard.Set) {
	t.Helper()
	specs := []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: f, K: k, DataLen: dataLen}}}
	backing, err := shard.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backing.Close)
	counter = &countingInvoker{inner: transport.NewLoopback(backing.Cluster()), t: t, perKind: map[string]int{}}
	if rs, err = shard.NewRemote(specs, counter); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	return backing, counter, rs
}

// TestQuiescentWriteMovesOnlyWhatItsRoundsRead: one 64 KiB write at f = 2,
// k = 4 into a quiescent register sends each of its n objects one piece, once
// — D/k bytes and a few hundred of timestamps and chunk headers — and gets
// back timestamps and flags only. The query round returns no piece, no update
// carries the full replica — every object has room in Vp — and the GC round,
// every update having answered from Vp, carries no piece. The bytes counted
// are those a sender puts on the socket: 132,384 of request payloads.
func TestQuiescentWriteMovesOnlyWhatItsRoundsRead(t *testing.T) {
	const f, k, dataLen = 2, 4, 64 << 10
	backing, counter, rs := countedRegister(t, f, k, dataLen)
	sh := rs.Shards()[0]
	want := value.Sequenced(1, 1, dataLen)
	if err := rs.WriteValue(1, sh, want); err != nil {
		t.Fatal(err)
	}
	n := 2*f + k
	// Per object: an update's chunk header, k, two timestamps and an empty
	// replica, and a GC's timestamp and empty chunk — under 200 bytes.
	if limit := n*dataLen/k + n*512; counter.requests > limit {
		t.Errorf("the write sent %d request-payload bytes, want at most n·D/k + n·512 = %d: %v", counter.requests, limit, counter.perKind)
	}
	if want := n * (dataLen/k + 164); counter.requests != want {
		t.Errorf("the write sent %d request-payload bytes, %d when this test was written: %v", counter.requests, want, counter.perKind)
	}
	if len(counter.rounds) != 3 {
		t.Errorf("the write took %d rounds, want 3: %+v", len(counter.rounds), counter.rounds)
	}
	if limit := n * 64; counter.responses > limit {
		t.Errorf("the write received %d response-payload bytes, want at most n·64 = %d: %v", counter.responses, limit, counter.perKind)
	}
	if got, err := rs.ReadValue(2, sh); err != nil || !got.Equal(want) {
		t.Fatalf("read after the write: %v, equal = %v", err, err == nil && got.Equal(want))
	}
	if got, wantBits := backing.Cluster().SampleStorage().BaseObjectBits, n*8*dataLen/k; got != wantBits {
		t.Errorf("quiescent storage %d bits, want %d", got, wantBits)
	}
}

// TestQuiescentReadMovesOnlyWhatItDecodes: one read of a quiescent 64 KiB
// register at f = 2, k = 4 is one round that asks the k + f objects 0..5 for
// their pieces and objects 6 and 7 for timestamps only, so what comes back is
// (k+f)·D/k bytes of pieces — n·D/k as Algorithm 3 is printed — and two
// timestamps from each of the others.
func TestQuiescentReadMovesOnlyWhatItDecodes(t *testing.T) {
	const f, k, dataLen = 2, 4, 64 << 10
	_, counter, rs := countedRegister(t, f, k, dataLen)
	sh := rs.Shards()[0]
	want := value.Sequenced(1, 1, dataLen)
	if err := rs.WriteValue(1, sh, want); err != nil {
		t.Fatal(err)
	}
	counter.rounds, counter.responses = nil, 0
	if got, err := rs.ReadValue(2, sh); err != nil || !got.Equal(want) {
		t.Fatalf("read after the write: %v, equal = %v", err, err == nil && got.Equal(want))
	}
	if len(counter.rounds) != 1 {
		t.Fatalf("the read took %d rounds, want 1: %+v", len(counter.rounds), counter.rounds)
	}
	n := 2*f + k
	round := counter.rounds[0]
	for obj := 0; obj < n; obj++ {
		wantKind := "adaptive.read"
		if obj >= k+f {
			wantKind = "adaptive.readts"
			if got := round.answered[obj]; got > 64 {
				t.Errorf("object %d answered %s with %d bytes, want at most 64", obj, wantKind, got)
			}
		}
		if round.kinds[obj] != wantKind {
			t.Errorf("object %d was sent %q, want %q", obj, round.kinds[obj], wantKind)
		}
	}
	if limit := (k+f)*dataLen/k + n*128; counter.responses > limit {
		t.Errorf("the read received %d response-payload bytes, want at most (k+f)·D/k + n·128 = %d: %v", counter.responses, limit, round.answered)
	}
}

// TestContendedWriteSendsTheReplicaOnlyWhereAsked: at f = 1, k = 2 a write
// finds Vp full on objects 0 and 1 (an earlier write got that far and no
// further) and object 3 down. Its first update round sends all four objects a
// piece and no replica; object 2 stores it, 0 and 1 answer that they need the
// replica, 3 says nothing. One settled answer is short of the quorum of
// three, so a second adaptive.update round carries the replica — to exactly
// 0, 1 and 3, and not to the object that stored the piece. The GC brings the
// piece to the objects that may hold the replica and none to object 2.
func TestContendedWriteSendsTheReplicaOnlyWhereAsked(t *testing.T) {
	const f, k, dataLen = 1, 2, 16 << 10
	backing, counter, rs := countedRegister(t, f, k, dataLen)
	earlier := adaptiveUpdate(t, 5, 9, 0xEE)
	for _, obj := range []int{0, 1} {
		if _, err := backing.Cluster().ApplyOne(obj, earlier(obj)); err != nil {
			t.Fatal(err)
		}
	}
	if err := backing.Cluster().CrashObject(3); err != nil {
		t.Fatal(err)
	}
	sh := rs.Shards()[0]
	want := value.Sequenced(1, 1, dataLen)
	if err := rs.WriteValue(1, sh, want); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, r := range counter.rounds {
		kinds = append(kinds, r.kind())
	}
	if got, want := strings.Join(kinds, " "), "adaptive.readts adaptive.update adaptive.update adaptive.gc"; got != want {
		t.Fatalf("the write's rounds were %q, want %q", got, want)
	}
	const piece, slack = dataLen / k, 512
	first, second, gc := counter.rounds[1], counter.rounds[2], counter.rounds[3]
	if !slices.Equal(first.targets, []int{0, 1, 2, 3}) || !slices.Equal(second.targets, []int{0, 1, 3}) {
		t.Errorf("the updates went to %v, then to %v; want every object, then the two that need the replica and the one that has not answered", first.targets, second.targets)
	}
	for obj, sent := range first.bytes {
		if sent > piece+slack {
			t.Errorf("the first update sent object %d %d bytes: more than a piece", obj, sent)
		}
	}
	for _, obj := range []int{0, 1} {
		if sent := second.bytes[obj]; sent < dataLen+piece || sent > dataLen+piece+slack {
			t.Errorf("the follow-up sent object %d %d bytes, want the replica and the piece", obj, sent)
		}
		if sent := gc.bytes[obj]; sent < piece {
			t.Errorf("the GC sent object %d, whose Vf holds the replica, %d bytes: no piece", obj, sent)
		}
	}
	if sent := gc.bytes[2]; sent > slack {
		t.Errorf("the GC sent object 2, which stored the piece in Vp, %d bytes", sent)
	}
	if got, err := rs.ReadValue(2, sh); err != nil || !got.Equal(want) {
		t.Fatalf("read after the write: %v, equal = %v", err, err == nil && got.Equal(want))
	}
	if got, wantBits := backing.Cluster().SampleStorage().BaseObjectBits, (2*f+k)*8*dataLen/k; got != wantBits {
		t.Errorf("storage after the write %d bits, want one piece an object (the initial one on the object that is down), %d", got, wantBits)
	}
}

// adaptiveUpdate builds the update a write stamped ⟨num, client⟩ sends object
// 0 at k = 2, every block filled with fill, through the codec (the provider's
// RMW types are unexported).
func adaptiveUpdate(t *testing.T, num, client int, fill byte) func(int) dsys.RMW {
	t.Helper()
	piece := func(index int) register.Chunk {
		return register.Chunk{
			TS:     register.Timestamp{Num: num, Client: client},
			Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{fill}, 8<<10)},
			Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
		}
	}
	var w register.WireWriter
	w.Int(2)
	w.TS(register.Timestamp{Num: num, Client: client})
	w.TS(register.ZeroTS)
	w.Chunk(piece(1))
	w.Chunks([]register.Chunk{piece(1), piece(2)})
	c, _ := register.CodecByKind("adaptive.update")
	rmw, err := c.Decode(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return func(int) dsys.RMW { return rmw }
}

// TestServerRequestBufferIsDeadAfterServe sends three updates of the same
// length and different bytes to one object over one connection, so each is
// read into the buffer the one before it was decoded from. Update A's piece is
// retained in Vp, update B's full replica in Vf; both must read back intact
// after C has overwritten the buffer they arrived in.
func TestServerRequestBufferIsDeadAfterServe(t *testing.T) {
	specs := []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 16 << 10}}}
	backing, err := shard.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	_, addr := startServer(t, backing)
	cli, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	for _, u := range []func(int) dsys.RMW{
		adaptiveUpdate(t, 5, 1, 0xAA), // A: Vp has room next to the initial piece
		adaptiveUpdate(t, 6, 2, 0xBB), // B: Vp is full, the full replica goes to Vf
		adaptiveUpdate(t, 4, 3, 0xCC), // C: older than Vf, stored nowhere
	} {
		if _, err := cli.InvokeRound(ctx, 1, []int{0}, u, 1); err != nil {
			t.Fatal(err)
		}
	}
	read, _ := register.CodecByKind("adaptive.read")
	rmw, err := read.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.InvokeRound(ctx, 2, []int{0}, func(int) dsys.RMW { return rmw }, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := register.EncodeResponse("adaptive.read", resp[0])
	if err != nil {
		t.Fatal(err)
	}
	r := register.NewWireReader(payload)
	r.TS()
	held := map[register.Timestamp]int{}
	for _, c := range r.Chunks() {
		fill := map[int]byte{0: 0x00, 5: 0xAA, 6: 0xBB}[c.TS.Num]
		if !bytes.Equal(c.Block.Data, bytes.Repeat([]byte{fill}, len(c.Block.Data))) {
			t.Errorf("piece %d of %v no longer holds the bytes it arrived with", c.Block.Index, c.TS)
		}
		held[c.TS]++
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	a, b := register.Timestamp{Num: 5, Client: 1}, register.Timestamp{Num: 6, Client: 2}
	if held[a] != 1 || held[b] != 2 || len(held) != 3 {
		t.Fatalf("object holds %v, want the initial piece, A's piece and B's two", held)
	}
}
