package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"spacebounds/internal/dsys"
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

// TestFrameSenderWireBytes: what the multi-part sender puts on a real socket
// is byte for byte `u32 length | u64 requestID | AppendBinary`, for untraced
// (version 1) and traced (version 2) envelopes and for responses, with the
// payload handed over as the caller's own slice. An envelope whose payload is
// split into Payload and Shared goes out as the very same bytes as the whole
// one, with both runs handed over as they stand.
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

	payload := bytes.Repeat([]byte("block bytes "), 4096)
	env := dsys.Envelope{Op: dsys.OpID{Client: 3, Seq: 9, Kind: dsys.OpWrite}, Object: 5, Kind: "adaptive.update", Payload: payload}
	traced := env
	traced.Trace, traced.Span = 0xABCDEF, 77
	empty := dsys.Envelope{Op: env.Op, Object: 1, Kind: "adaptive.read"}
	split := env
	split.Payload, split.Shared = payload[:1000], payload[1000:]
	splitTraced := traced
	splitTraced.Payload, splitTraced.Shared = payload[:7], payload[7:]
	resp := dsys.Response{Op: env.Op, Object: 5, Status: dsys.StatusOK, Payload: payload}
	failed := dsys.Response{Op: env.Op, Object: 5, Status: dsys.StatusBadRequest, Detail: "no such kind"}

	var want []byte
	expect := func(reqID uint64, body []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(8+len(body)))
		want = binary.BigEndian.AppendUint64(want, reqID)
		want = append(want, body...)
	}
	s := newFrameSender(out)
	for i, e := range []dsys.Envelope{env, traced, empty, split, splitTraced} {
		f, err := requestFrame(uint64(100+i), e)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Payload) > 0 && &f.payload[0] != &e.Payload[0] {
			t.Error("requestFrame copied the payload")
		}
		if len(e.Shared) > 0 && &f.shared[0] != &e.Shared[0] {
			t.Error("requestFrame copied the shared run")
		}
		if err := s.send(f); err != nil {
			t.Fatal(err)
		}
		whole := e
		whole.Payload, whole.Shared = payload[:len(e.Payload)+len(e.Shared)], nil
		body, err := whole.AppendBinary(nil)
		expect(uint64(100+i), body, err)
	}
	for i, r := range []dsys.Response{resp, failed} {
		f, err := responseFrame(uint64(200+i), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.send(f); err != nil {
			t.Fatal(err)
		}
		body, err := r.AppendBinary(nil)
		expect(uint64(200+i), body, err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes on the wire differ from u32 length | requestID | AppendBinary")
	}
	s.close()
	if err := s.send(frame{}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("send after close: %v, want net.ErrClosed", err)
	}
}
