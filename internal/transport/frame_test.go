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
	frame, err := readFrame(r)
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
	oversize := binary.BigEndian.AppendUint32(nil, maxFrameLen+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(oversize))); !errors.Is(err, ErrFrame) {
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
		got, err := readFrame(r)
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

// TestFrameSenderWireBytes: what the multi-part sender puts on a real socket
// is byte for byte `u32 length | u64 requestID | AppendBinary`, for untraced
// (version 1) and traced (version 2) envelopes and for responses, with the
// payload handed over as the caller's own slice.
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
	for i, e := range []dsys.Envelope{env, traced, empty} {
		f, err := requestFrame(uint64(100+i), e)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Payload) > 0 && &f.payload[0] != &e.Payload[0] {
			t.Error("requestFrame copied the payload")
		}
		if err := s.send(f); err != nil {
			t.Fatal(err)
		}
		body, err := e.AppendBinary(nil)
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
