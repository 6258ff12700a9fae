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

// frameLoop is a connection that delivers the same request frame forever.
type frameLoop struct {
	frame []byte
	off   int
}

func (l *frameLoop) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// BenchmarkServeRequest is handleConn's loop on one request of the tcp-large
// shape, read into the connection's buffer, served, and its response framed.
// "update" is an adaptive update of a 64 KiB value at k = 4 that carries the
// full replica, an 80 KiB frame: B/op is what a request costs the server
// beyond the bytes it keeps — the copy of the retained piece and the decoded
// headers, not the frame. "read-16KiB" is the read of an object holding one
// 16 KiB piece: B/op is the chunk headers and the response's inline bytes; the
// piece goes out as the state holds it.
func BenchmarkServeRequest(b *testing.B) {
	const f, k, dataLen = 2, 4, 64 << 10
	reg, err := adaptive.New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		b.Fatal(err)
	}
	ts := register.Timestamp{Num: 3, Client: 1}
	piece := func(index int) register.Chunk {
		return register.Chunk{TS: ts, Block: erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(index)}, dataLen/k)}}
	}
	var w register.WireWriter
	w.Int(k)
	w.TS(ts)
	w.TS(register.ZeroTS)
	w.Chunk(piece(1))
	w.Chunks([]register.Chunk{piece(1), piece(2), piece(3), piece(4)})
	op := dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}
	for _, bc := range []struct {
		name string
		env  dsys.Envelope
	}{
		{"update", dsys.Envelope{Op: op, Kind: "adaptive.update", Payload: w.Finish()}},
		{"read-16KiB", dsys.Envelope{Op: op, Kind: "adaptive.read"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			states, err := reg.InitialStates(value.Zero(dataLen))
			if err != nil {
				b.Fatal(err)
			}
			cluster := dsys.NewCluster(states, dsys.WithLiveMode(), dsys.WithoutAccounting())
			defer cluster.Close()
			srv := NewServer(cluster)
			body, err := bc.env.MarshalBinary()
			wire := flatFrame(b, 7, body, err)

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
