package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// The wire protocol is length-prefixed frames over TCP:
//
//	u32 length | payload
//
// where the payload of a request frame is `u64 requestID | dsys.Envelope`
// and of a response frame `u64 requestID | dsys.Response`. Request IDs are
// chosen by the client and only need to be unique per connection; they are
// what lets many quorum rounds share one pipelined connection.

// maxFrameLen bounds a single frame; anything larger indicates a corrupt or
// hostile stream.
const maxFrameLen = 64 << 20

// ErrFrame reports a malformed frame on the wire.
var ErrFrame = errors.New("transport: malformed frame")

// readFrameStep bounds how much readFrame allocates ahead of the bytes that
// have actually arrived. It is also the most a connection keeps of any buffer
// it reuses (reuse).
const readFrameStep = 1 << 20

// readFrame reads one length-prefixed frame and returns its payload: in buf
// when it fits buf's capacity, otherwise in a fresh, exactly sized slice.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	return readFrameBody(r, n, buf)
}

// readFrameLen reads a frame's length prefix. It is read where the reader
// buffers it (Peek), not copied out: a prefix passed to io.ReadFull would be
// one allocation per frame.
func readFrameLen(r *bufio.Reader) (int, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	_, _ = r.Discard(4) // cannot fail: Peek buffered them
	if n > maxFrameLen {
		return 0, fmt.Errorf("%w: length %d exceeds limit", ErrFrame, n)
	}
	return n, nil
}

// readFrameBody reads the n bytes of a frame whose prefix has been read, as
// readFrame does. The length prefix is untrusted until the bytes behind it
// arrive: a frame of up to readFrameStep is allocated at once, a longer one in
// steps that at most double what has already been read, so a corrupt or
// hostile header costs one step, not maxFrameLen.
func readFrameBody(r *bufio.Reader, n int, buf []byte) ([]byte, error) {
	payload := buf[:min(n, cap(buf))]
	if len(payload) < n {
		payload = make([]byte, min(n, readFrameStep))
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	for len(payload) < n {
		grown := make([]byte, min(n, 2*len(payload)))
		if _, err := io.ReadFull(r, grown[copy(grown, payload):]); err != nil {
			return nil, err
		}
		payload = grown
	}
	return payload, nil
}

// reuse returns buf emptied, to be written again, or nil once it has grown
// past readFrameStep: no connection keeps a buffer larger than that.
func reuse(buf []byte) []byte {
	if cap(buf) > readFrameStep {
		return nil
	}
	return buf[:0]
}

// A client connection cuts the response frames of up to slabFrameMax bytes
// from slabs of slabLen, one allocation for eight or more of them; a longer
// frame is allocated alone. 32 KiB is the largest slab the allocator serves
// from its size classes, and a cap of an eighth of it bounds the tail a slab
// leaves unused. DESIGN.md, "Data path and buffer ownership", has the
// readings: on the benchmark's workloads nearly every response is far
// shorter than either, so neither constant moves a count.
const (
	slabFrameMax = 4 << 10
	slabLen      = 32 << 10
)

// frameSlab is what a client connection's current slab has not yet handed
// out. A response's decoded chunks alias the frame they arrived in (DESIGN.md
// rule 2) for as long as their round's caller holds them, so no byte of a
// slab is read into twice: every frame is cut at its exact length, capacity
// included, and a slab too short for the next frame is left to the frames
// already cut from it.
type frameSlab []byte

// readFrame reads the next frame into the slab, or into a slice of its own if
// it is longer than slabFrameMax.
func (s *frameSlab) readFrame(r *bufio.Reader) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if n <= slabFrameMax {
		if len(*s) < n {
			*s = make([]byte, slabLen)
		}
		buf, *s = (*s)[:n:n], (*s)[n:]
	}
	return readFrameBody(r, n, buf)
}

// An outgoing frame is never assembled: it is written into a
// register.WireWriter that keeps code blocks by reference, so what reaches the
// sender is the frame's short fields — length prefix, request ID, message
// header, the payload's integers and chunk headers, message trailer — in the
// writer's buffer, and the blocks as the code, or the object's state, holds
// them. The sender copies the short fields and keeps the references, so the
// writer, and its buffer, can frame the next message as soon as send returns.

// ErrFrameTooLarge reports a frame that its sender refused to build because a
// receiver would reject its length (maxFrameLen) and drop the connection,
// failing every other call in flight on it.
var ErrFrameTooLarge = errors.New("transport: frame exceeds the size limit")

// writeRequestFrame leaves in w the request frame that carries rmw, whose
// codec is c, under env's addressing: on the wire exactly
// `u32 length | u64 requestID | env.AppendBinary` with the flat payload. The
// frame's inline bytes go in w's own buffer, grown at most once to their
// exact size.
func writeRequestFrame(w *register.WireWriter, reqID uint64, env dsys.Envelope, c register.Codec, rmw dsys.RMW) error {
	inline, total, err := c.RequestSize(w, rmw)
	if err != nil {
		return fmt.Errorf("%w: encoding %s: %v", register.ErrCodec, c.Kind, err)
	}
	env.Kind = c.Kind
	n := 8 + env.EncodedLen(total)
	if n > maxFrameLen {
		return fmt.Errorf("%w: %s request of %d bytes", ErrFrameTooLarge, c.Kind, n)
	}
	w.Reset(startFrame(slices.Grow(reuse(w.Finish()), 4+n-(total-inline)), n, reqID), true)
	return register.WriteEnvelope(w, env, c, rmw, total)
}

// writeResponseFrame leaves in w the response frame for resp, framed the same
// way. The payload of a StatusOK response is out — what Apply returned —
// encoded by c, the codec of the request's kind; should that fail, the frame
// carries StatusBadRequest instead. It returns the status sent.
func writeResponseFrame(w *register.WireWriter, reqID uint64, resp dsys.Response, c register.Codec, out any) (dsys.Status, error) {
	var inline, total int
	if resp.Status == dsys.StatusOK {
		var err error
		if inline, total, err = c.ResponseSize(w, out); err != nil {
			resp.Status, resp.Detail = dsys.StatusBadRequest, fmt.Sprintf("encode response: %v", err)
			inline, total = 0, 0
		}
	}
	n := 8 + resp.EncodedLen(total)
	w.Reset(startFrame(slices.Grow(reuse(w.Finish()), 4+n-(total-inline)), n, reqID), true)
	return resp.Status, register.WriteResponse(w, resp, c, out, total)
}

// startFrame begins a frame of n bytes (the length prefix not counted) in the
// empty buf: the prefix and the request ID.
func startFrame(buf []byte, n int, reqID uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(buf, uint32(n)), reqID)
}

// frameSender serializes frame writes onto one connection through a single
// writer goroutine. Senders enqueue frames; the writer drains whatever has
// accumulated and hands all of it to the socket in one vectored write — so
// frames enqueued by concurrent quorum rounds while a write is in progress
// coalesce into a single socket write, the connection-level analogue of the
// batched quorum engine's group commit.
//
// The queue is a writer of the sender's own: send appends a frame to it, its
// inline bytes copied into the queue's buffer and its blocks by reference, and
// the writer goroutine swaps the queue with the one it has just written and
// emptied. The two buffers are the connection's staging memory; neither is
// kept once it has grown past readFrameStep.
type frameSender struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  register.WireWriter
	closed bool
	err    error

	done chan struct{}
}

// newFrameSender starts the writer goroutine for conn.
func newFrameSender(conn net.Conn) *frameSender {
	s := &frameSender{conn: conn, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// send enqueues the frame w holds for writing; w may frame the next message
// as soon as send returns. It fails once the sender is closed or the
// connection has errored.
func (s *frameSender) send(w *register.WireWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if s.err != nil {
			return s.err
		}
		return net.ErrClosed
	}
	s.queue.Append(w)
	s.cond.Signal()
	return nil
}

// close stops the writer after it has drained already-enqueued frames. It
// does not close the connection; the owner does.
func (s *frameSender) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// fail latches a write error and stops accepting frames.
func (s *frameSender) fail(err error) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *frameSender) run() {
	defer close(s.done)
	// writing's address goes to WriteTo, so it lives on the heap: declared
	// here it is one cell per sender, not one per socket write.
	var batch register.WireWriter
	var segs, writing net.Buffers
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		batch, s.queue = s.queue, batch
		s.mu.Unlock()

		// WriteTo consumes the slice header it is called on, so it gets a
		// copy and segs keeps the array for the next batch.
		segs = batch.Segments(segs[:0])
		writing = segs
		_, err := writing.WriteTo(s.conn)
		// Do not pin what has been written, through the segments or through
		// the batch's references.
		clear(segs)
		batch.Reset(reuse(batch.Finish()), true)
		if err != nil {
			s.fail(err)
			return
		}
	}
}
