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
// shape — an adaptive update of a 64 KiB value at k = 4, an 80 KiB frame —
// read into the connection's buffer and served. B/op is what a request costs
// the server beyond the bytes it keeps: the copy of the retained piece and the
// decoded headers, not the frame.
func BenchmarkServeRequest(b *testing.B) {
	const f, k, dataLen = 2, 4, 64 << 10
	reg, err := adaptive.New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		b.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		b.Fatal(err)
	}
	cluster := dsys.NewCluster(states, dsys.WithLiveMode(), dsys.WithoutAccounting())
	defer cluster.Close()
	srv := NewServer(cluster)

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
	env := dsys.Envelope{Op: dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}, Kind: "adaptive.update", Payload: w.Finish()}
	f0, err := requestFrame(7, env)
	if err != nil {
		b.Fatal(err)
	}
	wire := append(append(append([]byte{}, f0.head...), f0.payload...), f0.tail...)

	br := bufio.NewReader(&frameLoop{frame: wire})
	var buf []byte
	serveOne := func() {
		frame, err := readFrame(br, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame
		if id := binary.BigEndian.Uint64(frame); id != 7 {
			b.Fatalf("request ID %d", id)
		}
		if resp := srv.serve(frame[8:]); resp.Status != dsys.StatusOK {
			b.Fatalf("served %v: %s", resp.Status, resp.Detail)
		}
	}
	serveOne() // warm-up: the buffer grows to the frame
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne()
	}
}
