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
	cluster := dsys.NewCluster(states, dsys.WithLiveMode(), dsys.WithoutAccounting())
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

// serveOK serves one request body and requires that it was applied.
func serveOK(tb testing.TB, srv *Server, body []byte) {
	tb.Helper()
	if resp, _, _ := srv.serve(body); resp.Status != dsys.StatusOK {
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

// BenchmarkServeRequest is handleConn's loop on one request of the tcp-large
// shape, read into the connection's buffer, served, and its response framed.
// B/op is what a request costs the server beyond the frame:
//   - "update-16KiB" is a write's first update, its 16 KiB piece and no
//     replica. Each request is the next write's — its timestamps are
//     rewritten in the frame between requests — so the object stores every
//     piece in Vp and drops the one before: B/op is the copy of the piece it
//     keeps and the decoded headers.
//   - "gc-16KiB" is a write's GC carrying its 16 KiB piece to an object whose
//     update settled in Vp: the object drops the piece, and B/op is the
//     decoded headers alone.
//   - "read-16KiB" is the read of an object holding one 16 KiB piece: B/op is
//     the chunk headers; the response's inline bytes go into the connection's
//     one writer, and the piece goes out as the state holds it.
func BenchmarkServeRequest(b *testing.B) {
	first, before := register.Timestamp{Num: 2, Client: 1}, register.Timestamp{Num: 1, Client: 1}
	for _, bc := range []struct {
		name    string
		kind    string
		payload []byte
		setup   []byte // a request served once before the loop
	}{
		{"update-16KiB", "adaptive.update", largeUpdate(first, before), nil},
		{"gc-16KiB", "adaptive.gc", largeGC(first), request(b, "adaptive.update", largeUpdate(first, register.ZeroTS))},
		{"read-16KiB", "adaptive.read", nil, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := largeServer(b)
			if bc.setup != nil {
				serveOK(b, srv, bc.setup)
			}
			wire := flatFrame(b, 7, request(b, bc.kind, bc.payload), nil)
			// An update's ts, storedTS and piece timestamp lead its payload,
			// behind k: the next write's update is the previous write's with
			// all three advanced by one.
			var advance func()
			if bc.kind == "adaptive.update" {
				at := bytes.Index(wire, bc.payload)
				advance = func() {
					for _, off := range []int{8, 24, 40} {
						field := wire[at+off:]
						binary.BigEndian.PutUint64(field, binary.BigEndian.Uint64(field)+1)
					}
				}
			}

			br := bufio.NewReader(&frameLoop{frame: wire})
			var buf []byte
			var out register.WireWriter
			sent := 0
			serveOne := func() {
				frame, err := readFrame(br, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = frame
				id := binary.BigEndian.Uint64(frame)
				resp, c, v := srv.serve(frame[8:])
				if status, err := writeResponseFrame(&out, id, resp, c, v); id != 7 || err != nil || status != dsys.StatusOK {
					b.Fatalf("request %d served %v: %s (%v)", id, status, resp.Detail, err)
				}
				sent = out.Len()
				if advance != nil {
					advance()
				}
			}
			serveOne() // warm-up: the buffer grows to the frame
			b.SetBytes(int64(len(wire) + sent))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOne()
			}
		})
	}
}
