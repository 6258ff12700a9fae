package transport

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// Frames hold code blocks by reference from the moment they are written to
// the moment the socket has taken them, which may be long after whoever
// produced the blocks has moved on. These tests hold a frame back on purpose
// and let its producer move on; under -race they also show that nobody writes
// to a block a queued frame is reading.

// filledPiece is the piece of write ⟨num, client⟩ at index, every byte fill.
func filledPiece(num, client, index int, fill byte, blockLen int) register.Chunk {
	return register.Chunk{
		TS:     register.Timestamp{Num: num, Client: client},
		Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{fill}, blockLen)},
		Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
	}
}

// TestQueuedReadResponseKeepsThePiecesItsApplySaw: a client sends two reads
// and reads no answer, so the first response blocks the connection's writer
// and the second waits in the queue — both pointing into the object's state.
// A later write then takes the object past that state: its update goes to Vf,
// its GC drops every piece the responses reference. When the client finally
// reads, both responses carry the pieces their Apply saw, byte for byte.
func TestQueuedReadResponseKeepsThePiecesItsApplySaw(t *testing.T) {
	const k, blockLen = 2, 8 << 10
	reg, err := adaptive.New(register.Config{F: 1, K: k, DataLen: k * blockLen})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(k * blockLen))
	if err != nil {
		t.Fatal(err)
	}
	cluster := dsys.NewCluster(states, dsys.WithLiveMode())
	defer cluster.Close()
	update := func(num int, fill byte) dsys.RMW {
		var w register.WireWriter
		w.Int(k)
		w.TS(register.Timestamp{Num: num, Client: 1})
		w.TS(register.ZeroTS)
		w.Chunk(filledPiece(num, 1, 1, fill, blockLen))
		w.Chunks([]register.Chunk{filledPiece(num, 1, 1, fill, blockLen), filledPiece(num, 1, 2, fill, blockLen)})
		return rmwOf(t, "adaptive.update", w.Finish())(0)
	}
	apply := func(rmw dsys.RMW) {
		t.Helper()
		if _, err := cluster.ApplyOne(0, rmw); err != nil {
			t.Fatal(err)
		}
	}
	apply(update(5, 0xAA)) // Vp: the initial piece and this one

	srv := NewServer(cluster)
	client, served := net.Pipe() // unbuffered: a response is written only as the client reads it
	defer client.Close()
	srv.wg.Add(1)
	go srv.handleConn(served)
	defer srv.wg.Wait()
	defer served.Close()
	request := func(reqID uint64, obj int) {
		t.Helper()
		read, err := dsys.Envelope{Op: dsys.OpID{Client: 2, Kind: dsys.OpRead}, Object: obj, Kind: "adaptive.read"}.MarshalBinary()
		if _, err := client.Write(flatFrame(t, reqID, read, err)); err != nil {
			t.Fatal(err)
		}
	}
	// The handler reads a request only once it has enqueued the answer to the
	// one before, so when the third write returns, the two answers about
	// object 0 are waiting; the third asks about another object.
	request(1, 0)
	request(2, 0)
	request(3, 1)

	apply(update(6, 0xBB)) // Vp is full: the replica goes to Vf
	var gc register.WireWriter
	gc.TS(register.Timestamp{Num: 6, Client: 1})
	gc.Chunk(filledPiece(6, 1, 1, 0xBB, blockLen))
	apply(rmwOf(t, "adaptive.gc", gc.Finish())(0)) // drops every older piece
	for i := 0; i < 3; i++ {
		runtime.GC() // what nothing references any more is gone
		_ = bytes.Repeat([]byte{0xEE}, blockLen)
	}
	request(4, 0)

	codec, _ := register.CodecByKind("adaptive.read")
	br := bufio.NewReader(client)
	pieces := func(reqID uint64) map[int]byte {
		t.Helper()
		_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
		frame, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dsys.UnmarshalResponse(frame[8:])
		if err != nil || resp.Status != dsys.StatusOK {
			t.Fatalf("response %d: %v, %v", reqID, resp.Status, err)
		}
		payload, err := codec.DecodeResp(nil, resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := codec.EncodeResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		r := register.NewWireReader(flat)
		r.TS()
		held := map[int]byte{}
		for _, c := range r.ChunksAlias() {
			fill := c.Block.Data[0]
			if len(c.Block.Data) != blockLen || !bytes.Equal(c.Block.Data, bytes.Repeat([]byte{fill}, blockLen)) {
				t.Errorf("response %d: the piece of write %v is not the bytes it was stored with", reqID, c.TS)
			}
			held[c.TS.Num] = fill
		}
		return held
	}
	for reqID := uint64(1); reqID <= 2; reqID++ {
		if held := pieces(reqID); len(held) != 2 || held[0] != 0x00 || held[5] != 0xAA {
			t.Errorf("response %d, served before the later write, carries %v; want the initial piece and write 5's", reqID, held)
		}
	}
	pieces(3)
	if held := pieces(4); len(held) != 1 || held[6] != 0xBB {
		t.Errorf("the response served after the GC carries %v; want write 6's piece alone", held)
	}
}

// gatedConn holds back every Write until its gate opens.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c gatedConn) Write(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(p)
}

// TestStragglerFrameCarriesItsPieceAfterTheWriteReturned: object 3's
// connection writes nothing until a gate opens, so a whole write — query,
// update and GC rounds, each returning at its quorum of the other three —
// completes, its encoder expires and its caller's value is garbage, while the
// three frames addressed to object 3 sit in the sender's queue pointing at the
// write's piece. Let through, they store exactly the piece the code produced.
func TestStragglerFrameCarriesItsPieceAfterTheWriteReturned(t *testing.T) {
	const f, k, dataLen = 1, 2, 16 << 10
	cfg := register.Config{F: f, K: k, DataLen: dataLen}
	specs := []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: cfg}}
	backing, err := shard.New(specs)
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

	// One node per object, all the same server; node 3's connection is gated.
	n := 2*f + k
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = addr.String()
	}
	cli, err := Dial(addrs)
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
	straggler := &clientConn{addr: addrs[3], conn: gated, sender: newFrameSender(gated), pending: make(map[uint64]*pendingCall)}
	go straggler.readLoop()
	cli.slots[3].conn = straggler

	rs, err := shard.NewRemote(specs, cli)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	want := value.Sequenced(1, 1, dataLen)
	func() {
		v := value.Sequenced(1, 1, dataLen) // garbage once the write returns
		if err := rs.WriteValue(1, rs.Shards()[0], v); err != nil {
			t.Fatal(err)
		}
	}()
	held := func() (pieces []register.Chunk) {
		t.Helper()
		resp, err := backing.Cluster().ApplyOne(3, rmwOf(t, "adaptive.read", nil)(3))
		if err != nil {
			t.Fatal(err)
		}
		flat, err := register.EncodeResponse("adaptive.read", resp)
		if err != nil {
			t.Fatal(err)
		}
		r := register.NewWireReader(flat)
		r.TS()
		return r.Chunks()
	}
	if pieces := held(); len(pieces) != 1 || pieces[0].TS.Num != 0 {
		t.Fatalf("object 3 holds %d pieces before its connection wrote anything; want the initial one", len(pieces))
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		_ = bytes.Repeat([]byte{0xEE}, dataLen/k)
	}
	close(gate)

	blocks, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	code, err := blocks.Code.Encode(want.View())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		pieces := held()
		if len(pieces) == 1 && pieces[0].TS.Num == 1 {
			if got := pieces[0].Block; got.Index != 4 || !bytes.Equal(got.Data, code[3].Data) {
				t.Fatalf("object 3 stored block %d of %d bytes: not the piece the write's code produced for it", got.Index, len(got.Data))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the held-back frames never settled object 3: it holds %d pieces", len(pieces))
		}
	}
	if got, err := rs.ReadValue(2, rs.Shards()[0]); err != nil || !got.Equal(want) {
		t.Fatalf("read after the stragglers landed: %v, equal = %v", err, err == nil && got.Equal(want))
	}
}

// TestLateAnswerLandsInNoRMW: a client decodes an answer into the RMW its
// request carried, and only while the round that sent it waits. Object 3's
// connection writes nothing until a gate opens, so a read round returns at
// its quorum of the other three. Its answer, let through afterwards, is
// dropped: the RMW's answer slot stays zero, under the race detector too,
// while the caller reads the RMWs of the round that returned.
func TestLateAnswerLandsInNoRMW(t *testing.T) {
	fx := newRoundFixture(t)
	// One node per object, all the fixture's server; node 3's connection is
	// gated.
	addrs := make([]string, roundTargets)
	for i := range addrs {
		addrs[i] = fx.addr
	}
	cli, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	raw, err := net.Dial("tcp", fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	gated := gatedConn{Conn: raw, gate: gate}
	straggler := &clientConn{addr: addrs[3], conn: gated, sender: newFrameSender(gated), pending: make(map[uint64]*pendingCall)}
	go straggler.readLoop()
	cli.slots[3].conn = straggler

	c, _ := register.CodecByKind("abd.read")
	targets := fx.targets
	round := func(quorum int) ([]dsys.RMW, map[int]any) {
		t.Helper()
		rmws := make([]dsys.RMW, len(targets))
		resp, err := cli.InvokeRound(context.Background(), 1, targets, func(obj int) dsys.RMW {
			rmw, err := c.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			rmws[obj] = rmw
			return rmw
		}, quorum)
		if err != nil {
			t.Fatal(err)
		}
		return rmws, resp
	}
	answered := func(rmw dsys.RMW) bool { return !reflect.ValueOf(rmw).Elem().IsZero() }

	first, resp := round(3)
	if _, late := resp[3]; late || len(resp) != 3 {
		t.Fatalf("the round returned answers from %d objects, object 3's among them: %v", len(resp), late)
	}
	for obj := range 3 {
		// An abd read is its answer slot: the answer's address is the RMW's.
		if !answered(first[obj]) || reflect.ValueOf(resp[obj]).Pointer() != reflect.ValueOf(first[obj]).Pointer() {
			t.Fatalf("object %d's answer is not in the RMW its round sent it", obj)
		}
	}
	close(gate)
	// The node answers a connection's requests in turn, so once a round
	// through node 3 has its answer, the late one has arrived before it.
	round(len(targets))
	straggler.pmu.Lock()
	pending := len(straggler.pending)
	straggler.pmu.Unlock()
	if pending != 0 {
		t.Fatalf("%d calls still pending on node 3", pending)
	}
	if answered(first[3]) {
		t.Fatal("the answer that arrived after its round returned was decoded into the round's RMW")
	}
}
