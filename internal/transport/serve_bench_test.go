package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/value"
)

// frameLoop is a connection that delivers the same request frame forever. A
// read never runs past the end of the frame, so the frame may be rewritten
// between requests.
type frameLoop struct {
	frame []byte
	off   int
}

func (l *frameLoop) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// largeShape is the adaptive register of the tcp-large workload: 64 KiB
// values at f = 2, k = 4, so 16 KiB pieces.
var largeShape = register.Config{F: 2, K: 4, DataLen: 64 << 10}

// largeServer serves largeShape's objects, each holding its piece of v0, from
// a cluster of its own.
func largeServer(tb testing.TB) *Server {
	tb.Helper()
	reg, err := adaptive.New(largeShape)
	if err != nil {
		tb.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(largeShape.DataLen))
	if err != nil {
		tb.Fatal(err)
	}
	cluster := dsys.NewCluster(states, dsys.WithLiveMode())
	tb.Cleanup(cluster.Close)
	return NewServer(cluster)
}

// largePiece is object 0's piece of the write stamped ts.
func largePiece(ts register.Timestamp) register.Chunk {
	return register.Chunk{TS: ts, Block: erasure.Block{Index: 1, Data: bytes.Repeat([]byte{1}, largeShape.DataLen/largeShape.K)}}
}

// largeUpdate is the first update object 0 gets from the write stamped ts: its
// piece and no replica.
func largeUpdate(ts, storedTS register.Timestamp) []byte {
	var w register.WireWriter
	w.Int(largeShape.K)
	w.TS(ts)
	w.TS(storedTS)
	w.Chunk(largePiece(ts))
	w.Chunks(nil)
	return w.Finish()
}

// largeGC is the GC object 0 gets from the write stamped ts, carrying its
// piece: what a writer sends an object whose update it did not see settle.
func largeGC(ts register.Timestamp) []byte {
	var w register.WireWriter
	w.TS(ts)
	w.Chunk(largePiece(ts))
	return w.Finish()
}

// request is the envelope body that carries payload, an RMW of kind, to
// object 0.
func request(tb testing.TB, kind string, payload []byte) []byte {
	tb.Helper()
	body, err := dsys.Envelope{Op: dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}, Kind: kind, Payload: payload}.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveOK serves one request body, decoded fresh, and requires that it was
// applied.
func serveOK(tb testing.TB, srv *Server, body []byte) {
	tb.Helper()
	var rmws register.Decoded
	if resp, _, _ := srv.serve(body, &rmws); resp.Status != dsys.StatusOK {
		tb.Fatalf("served %v: %s", resp.Status, resp.Detail)
	}
}

// TestServedGCCopiesNoDroppedPiece: a GC that carries its 16 KiB piece to an
// object whose update settled in Vp leaves the piece where it arrived, and
// serving it allocates the decoded headers — under 1 KiB — and no copy of the
// piece it drops.
func TestServedGCCopiesNoDroppedPiece(t *testing.T) {
	srv := largeServer(t)
	ts := register.Timestamp{Num: 3, Client: 1}
	serveOK(t, srv, request(t, "adaptive.update", largeUpdate(ts, register.ZeroTS)))
	gc := request(t, "adaptive.gc", largeGC(ts))
	perGC := allocatedPerRun(200, func() { serveOK(t, srv, gc) })
	err := srv.cluster.ReadObjectState(0, func(s dsys.State) {
		if vf := s.(interface{ VfLen() int }).VfLen(); vf != 0 {
			t.Errorf("the GC stored %d pieces in Vf, want it to drop its piece", vf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if perGC >= 1<<10 {
		t.Errorf("serving a GC whose %d-byte piece the object drops allocates %d bytes, want under 1 KiB", len(largePiece(ts).Block.Data), perGC)
	}
}

// servedRequest is one request of the tcp-large shape as a connection keeps
// receiving it: the request frame, and what serving it once does to the
// object before a loop serves it again.
type servedRequest struct {
	name    string
	kind    string
	payload []byte
	setup   []byte // a request served once, decoded fresh, before the loop
}

// servedRequests are the rows of BenchmarkServeRequest and the cases of
// TestServeAllocations:
//   - "update-16KiB" is a write's first update, its 16 KiB piece and no
//     replica. Each request is the next write's — its timestamps are
//     rewritten in the frame between requests — so the object stores every
//     piece in Vp and drops the one before: it copies the piece it keeps.
//   - "gc-16KiB" is a write's GC carrying its 16 KiB piece to an object whose
//     update settled in Vp: the object drops the piece, and the connection
//     frames no response (a GC is posted).
//   - "read-16KiB" is the read of an object holding one 16 KiB piece: the
//     response's inline bytes go into the connection's one writer, and the
//     piece goes out as the state holds it.
//   - "readts" is a write's timestamp query.
func servedRequests(tb testing.TB) []servedRequest {
	first, before := register.Timestamp{Num: 2, Client: 1}, register.Timestamp{Num: 1, Client: 1}
	return []servedRequest{
		{"update-16KiB", "adaptive.update", largeUpdate(first, before), nil},
		{"gc-16KiB", "adaptive.gc", largeGC(first), request(tb, "adaptive.update", largeUpdate(first, register.ZeroTS))},
		{"read-16KiB", "adaptive.read", nil, nil},
		{"readts", "adaptive.readts", nil, nil},
	}
}

// responseStatusOffset is where a response's status byte sits in its
// encoding: behind the version byte, the op (client, seq, kind) and the
// object.
const responseStatusOffset = 1 + 8 + 8 + 1 + 8

// connLoop is handleConn's loop without the socket on a server of its own:
// serveOne reads the request frame from a connection that delivers it
// forever, serves it (serveNext) and checks the response the connection's
// writer framed, and wire is the request frame. The first request has been
// served, so the connection is warm.
func connLoop(tb testing.TB, sr servedRequest) (serveOne func(), wire []byte, cs *connState) {
	tb.Helper()
	srv := largeServer(tb)
	if sr.setup != nil {
		serveOK(tb, srv, sr.setup)
	}
	wire = flatFrame(tb, 7, request(tb, sr.kind, sr.payload), nil)
	// An update's ts, storedTS and piece timestamp lead its payload, behind
	// k: the next write's update is the previous write's with all three
	// advanced by one.
	var advance func()
	if sr.kind == "adaptive.update" {
		at := bytes.Index(wire, sr.payload)
		advance = func() {
			for _, off := range []int{8, 24, 40} {
				field := wire[at+off:]
				binary.BigEndian.PutUint64(field, binary.BigEndian.Uint64(field)+1)
			}
		}
	}
	br := bufio.NewReader(&frameLoop{frame: wire})
	cs = new(connState)
	serveOne = func() {
		if err := srv.serveNext(cs, br); err != nil {
			tb.Fatal(err)
		}
		// The response leads the frame's inline bytes, behind the length
		// prefix and the request ID. A GC is posted: it is answered by no
		// frame at all.
		frame := cs.w.Finish()
		if sr.kind == "adaptive.gc" {
			if len(frame) != 0 {
				tb.Fatalf("posted request answered with %x", frame[:min(len(frame), 64)])
			}
		} else if binary.BigEndian.Uint64(frame[4:]) != 7 || frame[12+responseStatusOffset] != byte(dsys.StatusOK) {
			tb.Fatalf("request served as %x", frame[:min(len(frame), 64)])
		}
		if advance != nil {
			advance()
		}
	}
	serveOne()
	return serveOne, wire, cs
}

// TestServeAllocations pins what a warmed connection allocates per request:
// it decodes each request over the RMW of its kind it decoded last, and a
// read answers in that RMW's list of chunk headers. So a timestamp query, a
// read and a GC whose piece the object drops allocate nothing, and an update
// the object stores allocates one thing: the copy of its piece (Retain).
func TestServeAllocations(t *testing.T) {
	want := map[string]float64{"update-16KiB": 1, "gc-16KiB": 0, "read-16KiB": 0, "readts": 0}
	for _, sr := range servedRequests(t) {
		serveOne, _, _ := connLoop(t, sr)
		if got := testing.AllocsPerRun(200, serveOne); got != want[sr.name] {
			t.Errorf("%s: a warmed connection allocates %.1f times per request, want %.0f", sr.name, got, want[sr.name])
		}
	}
}

// BenchmarkServeRequest is handleConn's loop on one request of the tcp-large
// shape (servedRequests), read into the connection's buffer, decoded over the
// connection's last RMW of its kind, served, and its response framed. B/op is
// what a request costs the server beyond the frame: the copy of a piece the
// object keeps, and nothing else.
func BenchmarkServeRequest(b *testing.B) {
	for _, sr := range servedRequests(b) {
		b.Run(sr.name, func(b *testing.B) {
			serveOne, wire, cs := connLoop(b, sr)
			b.SetBytes(int64(len(wire) + cs.w.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOne()
			}
		})
	}
}
