package transport

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	_ "spacebounds/internal/register/adaptive"
)

// TestReadFrameHostileHeader: a header claiming the largest allowed frame,
// followed by ten bytes and EOF, must fail having allocated for what arrived,
// not for what was claimed.
func TestReadFrameHostileHeader(t *testing.T) {
	stream := binary.BigEndian.AppendUint32(nil, maxFrameLen)
	stream = append(stream, "ten bytes!"...)
	r := bufio.NewReader(bytes.NewReader(stream))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frame, err := readFrame(r, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("readFrame returned %d bytes from a truncated stream", len(frame))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("a %d MiB claim backed by 10 bytes allocated %d bytes, want < 2 MiB", maxFrameLen>>20, got)
	}
	// A connection's kept buffer changes nothing: the claim does not fit it.
	kept := make([]byte, 4096)
	runtime.ReadMemStats(&before)
	_, err = readFrame(bufio.NewReader(bytes.NewReader(stream)), kept)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, io.ErrUnexpectedEOF) || got >= 2<<20 {
		t.Errorf("with a kept buffer: err = %v, %d bytes allocated, want io.ErrUnexpectedEOF and < 2 MiB", err, got)
	}
	oversize := binary.BigEndian.AppendUint32(nil, maxFrameLen+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(oversize)), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("length beyond the limit: err = %v, want ErrFrame", err)
	}
}

// TestReadFrameSizes reads frames on both sides of the step in which long
// frames grow, and checks content and exact sizing.
func TestReadFrameSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 4095, readFrameStep - 1, readFrameStep, readFrameStep + 1, 3*readFrameStep + 17} {
		want := make([]byte, n)
		rng.Read(want)
		stream := append(binary.BigEndian.AppendUint32(nil, uint32(n)), want...)
		stream = append(stream, 0xFF) // the next frame's first byte must stay unread
		r := bufio.NewReader(bytes.NewReader(stream))
		got, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", n, err)
		}
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("%d-byte frame: got %d bytes (cap %d), equal=%v", n, len(got), cap(got), bytes.Equal(got, want))
		}
		if b, err := r.ReadByte(); err != nil || b != 0xFF {
			t.Fatalf("%d-byte frame: readFrame consumed past its frame (%v, %v)", n, b, err)
		}
	}
}

// TestReadFrameReusesBuffer is the server's read path: a frame that fits the
// buffer it is handed lands in that buffer, one that does not gets memory of
// its own, and the loop handleConn runs keeps what it was given only up to
// readFrameStep — so a connection never pins more than that.
func TestReadFrameReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var stream []byte
	sizes := []int{100, 80 << 10, 80 << 10, 9, readFrameStep, readFrameStep + 1, 80 << 10}
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		want[i] = make([]byte, n)
		rng.Read(want[i])
		stream = append(binary.BigEndian.AppendUint32(stream, uint32(n)), want[i]...)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, n := range sizes {
		had := cap(buf)
		got, err := readFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("frame %d: wrong bytes", i)
		}
		reused := had > 0 && n > 0 && &got[0] == &buf[:1][0]
		if reused != (n <= had) {
			t.Errorf("frame %d of %d bytes, buffer of %d: reused = %v", i, n, had, reused)
		}
		if cap(got) <= readFrameStep {
			buf = got
		}
		if cap(buf) > readFrameStep {
			t.Fatalf("frame %d: the kept buffer grew to %d bytes, above readFrameStep", i, cap(buf))
		}
	}
	if cap(buf) != readFrameStep {
		t.Errorf("kept buffer ends at %d bytes, want the largest frame of at most readFrameStep", cap(buf))
	}
}

// TestSlabFramesNeverOverlap is a client connection's read path: frames on
// both sides of slabFrameMax, read in turn through one slab, each keep their
// own bytes after every later frame has been read, end at their capacity, and
// share no byte with another frame — while the short ones really are cut from
// shared slabs.
func TestSlabFramesNeverOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, 8, 100, slabFrameMax - 1, slabFrameMax, slabFrameMax + 1, slabLen, 12}
	for len(sizes) < 200 {
		sizes = append(sizes, rng.Intn(slabFrameMax+64))
	}
	var stream []byte
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		want[i] = make([]byte, n)
		rng.Read(want[i])
		stream = append(binary.BigEndian.AppendUint32(stream, uint32(n)), want[i]...)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var slab frameSlab
	got := make([][]byte, len(sizes))
	for i := range sizes {
		frame, err := slab.readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got[i] = frame
	}
	if _, err := slab.readFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("past the last frame: err = %v, want io.EOF", err)
	}

	type span struct{ from, to uintptr }
	var spans []span
	for i, frame := range got {
		if !bytes.Equal(frame, want[i]) {
			t.Fatalf("frame %d of %d bytes no longer holds its bytes", i, sizes[i])
		}
		if cap(frame) != len(frame) {
			t.Errorf("frame %d: %d bytes of capacity %d, want exactly its length", i, len(frame), cap(frame))
		}
		if len(frame) > 0 {
			from := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
			spans = append(spans, span{from, from + uintptr(len(frame))})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	adjacent := 0
	for i := 1; i < len(spans); i++ {
		switch {
		case spans[i].from < spans[i-1].to:
			t.Fatalf("two frames share the bytes at %#x", spans[i].from)
		case spans[i].from == spans[i-1].to:
			adjacent++
		}
	}
	if adjacent < len(spans)/2 {
		t.Errorf("only %d of %d frames begin where another ends: the slab is not cutting them", adjacent, len(spans))
	}
}

// TestFrameSenderWireBytes: what the sender puts on a real socket is byte for
// byte `u32 length | u64 requestID | AppendBinary` of the flat encoding — for
// untraced (version 1) and traced (version 2) envelopes, with and without
// blocks, and for responses — while every long block is handed to the socket
// as the memory the RMW, or the response value, holds it in.
func TestFrameSenderWireBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// An update whose replica is two 16 KiB blocks around a short one, and a
	// read response of the same chunks. Decoded, the replica's blocks and the
	// response's are views of these payloads: that is the memory the socket
	// must be handed.
	const blockLen = 16 << 10
	chunk := func(index, n int) register.Chunk {
		return register.Chunk{TS: register.Timestamp{Num: 3, Client: 1}, Block: erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(index)}, n)}}
	}
	full := []register.Chunk{chunk(1, blockLen), chunk(2, 24), chunk(3, blockLen)}
	var pw register.WireWriter
	pw.Int(3)
	pw.TS(register.Timestamp{Num: 3, Client: 1})
	pw.TS(register.ZeroTS)
	pw.Chunk(chunk(1, blockLen))
	pw.Chunks(full)
	updatePayload := pw.Finish()
	pw.Reset(nil, false)
	pw.TS(register.Timestamp{Num: 3, Client: 1})
	pw.Chunks(full)
	readPayload := pw.Finish()

	updateCodec, _ := register.CodecByKind("adaptive.update")
	update, err := updateCodec.Decode(updatePayload)
	if err != nil {
		t.Fatal(err)
	}
	readCodec, _ := register.CodecByKind("adaptive.read")
	read, err := readCodec.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	readValue, err := readCodec.DecodeResp(readPayload)
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	var w register.WireWriter
	s := newFrameSender(out)
	// enqueue sends the frame w holds and requires that views blocks of
	// blockLen bytes went out as views of payload.
	enqueue := func(what string, payload []byte, views int, flat []byte) {
		t.Helper()
		got := 0
		for _, seg := range w.Segments(nil) {
			if len(seg) == blockLen && len(payload) > 0 && uintptr(unsafe.Pointer(&seg[0]))-uintptr(unsafe.Pointer(&payload[0])) < uintptr(len(payload)) {
				got++
			}
		}
		if got != views {
			t.Errorf("%s: %d blocks went to the socket as the memory they were held in, want %d", what, got, views)
		}
		if inline := len(w.Finish()); inline > 512 {
			t.Errorf("%s: %d bytes were copied into the frame's buffer: more than headers", what, inline)
		}
		if err := s.send(&w); err != nil {
			t.Fatal(err)
		}
		want = append(want, flat...)
	}

	op := dsys.OpID{Client: 3, Seq: 9, Kind: dsys.OpWrite}
	for i, tc := range []struct {
		what    string
		env     dsys.Envelope
		codec   register.Codec
		rmw     dsys.RMW
		payload []byte
		views   int
	}{
		{"update", dsys.Envelope{Op: op, Object: 5}, updateCodec, update, updatePayload, 2},
		{"traced update", dsys.Envelope{Op: op, Object: 5, Trace: 0xABCDEF, Span: 77}, updateCodec, update, updatePayload, 2},
		{"read", dsys.Envelope{Op: op, Object: 1}, readCodec, read, nil, 0},
	} {
		reqID := uint64(100 + i)
		if err := writeRequestFrame(&w, reqID, tc.env, tc.codec, tc.rmw); err != nil {
			t.Fatal(err)
		}
		flat := tc.env
		flat.Kind, flat.Payload = tc.codec.Kind, tc.payload
		body, err := flat.AppendBinary(nil)
		enqueue(tc.what, tc.payload, tc.views, flatFrame(t, reqID, body, err))
	}
	for i, tc := range []struct {
		what    string
		resp    dsys.Response
		payload []byte
		views   int
	}{
		{"read response", dsys.Response{Op: op, Object: 5, Status: dsys.StatusOK}, readPayload, 2},
		{"refusal", dsys.Response{Op: op, Object: 5, Status: dsys.StatusBadRequest, Detail: "no such kind"}, nil, 0},
	} {
		reqID := uint64(200 + i)
		if status, err := writeResponseFrame(&w, reqID, tc.resp, readCodec, readValue); err != nil || status != tc.resp.Status {
			t.Fatalf("%s: sent as %v (%v)", tc.what, status, err)
		}
		flat := tc.resp
		flat.Payload = tc.payload
		body, err := flat.AppendBinary(nil)
		enqueue(tc.what, tc.payload, tc.views, flatFrame(t, reqID, body, err))
	}
	// A response value its codec cannot encode goes out as a refusal.
	chunkCodec, _ := register.CodecByKind("abd.read")
	status, err := writeResponseFrame(&w, 300, dsys.Response{Op: op, Status: dsys.StatusOK}, chunkCodec, "not a chunk")
	if err != nil || status != dsys.StatusBadRequest {
		t.Errorf("a response that does not encode was sent as %v (%v), want bad-request", status, err)
	}

	got := make([]byte, len(want))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes on the wire differ from u32 length | requestID | AppendBinary")
	}
	s.close()
	if err := s.send(&w); !errors.Is(err, net.ErrClosed) {
		t.Errorf("send after close: %v, want net.ErrClosed", err)
	}
}

// TestSentFrameIsTheSendersCopy: once send returns, the frame belongs to the
// sender — its short fields copied, its blocks referenced — so the writer that
// framed it may be overwritten and reset while the frame still waits for the
// socket. The connection here writes nothing until the writer has been
// scribbled over, and the bytes it then writes are the frames as they were
// sent.
func TestSentFrameIsTheSendersCopy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	gate := make(chan struct{})
	s := newFrameSender(gatedConn{Conn: out, gate: gate})
	var w register.WireWriter
	var want []byte
	op := dsys.OpID{Client: 3, Seq: 9, Kind: dsys.OpWrite}
	// A block short enough to be copied into the frame, and one long enough
	// to go by reference.
	for i, blockLen := range []int{24, 16 << 10} {
		rmw := abdUpdateOf(t, blockLen)(i)
		codec, _ := register.CodecOf(rmw)
		reqID := uint64(400 + i)
		if err := writeRequestFrame(&w, reqID, dsys.Envelope{Op: op, Object: i}, codec, rmw); err != nil {
			t.Fatal(err)
		}
		env, err := register.EncodeEnvelope(op, i, rmw)
		if err != nil {
			t.Fatal(err)
		}
		body, err := env.AppendBinary(nil)
		want = append(want, flatFrame(t, reqID, body, err)...)
		if err := s.send(&w); err != nil {
			t.Fatal(err)
		}
		buf := w.Finish()
		for j := range buf {
			buf[j] = 0xEE
		}
		w.Reset(buf[:0], true)
		w.Int(-1)
	}
	close(gate)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the socket carries what the writer held after send returned, not the frames sent")
	}
	s.close()
}

// BenchmarkSegmentsWrite is the ladder row behind register's threshold for
// holding a block by reference: a round's worth of frames — four, each a
// header, one block and a trailer — staged the way a connection's sender
// stages them, short fields copied into one reused buffer and long blocks by
// reference, and handed to a loopback socket in one vectored write, by a
// writer that leaves the block out of the buffer and by one that copies it in.
func BenchmarkSegmentsWrite(b *testing.B) {
	for _, blockLen := range []int{512, 2 << 10, 16 << 10} {
		for _, byRef := range []bool{true, false} {
			name := fmt.Sprintf("copy-%d", blockLen)
			if byRef {
				name = fmt.Sprintf("ref-%d", blockLen)
			}
			b.Run(name, func(b *testing.B) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				out, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer out.Close()
				in, err := ln.Accept()
				if err != nil {
					b.Fatal(err)
				}
				defer in.Close()
				go func() { _, _ = io.Copy(io.Discard, in) }()

				chunk := register.Chunk{Block: erasure.Block{Index: 1, Data: make([]byte, blockLen)}}
				var w, stage register.WireWriter
				var segs, writing net.Buffers
				b.SetBytes(int64(4 * register.ChunkWireSize(chunk)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for f := 0; f < 4; f++ {
						w.Reset(w.Finish()[:0], byRef)
						w.Chunk(chunk)
						stage.Append(&w)
					}
					segs = stage.Segments(segs[:0])
					writing = segs
					if _, err := writing.WriteTo(out); err != nil {
						b.Fatal(err)
					}
					stage.Reset(stage.Finish()[:0], true)
				}
			})
		}
	}
}
