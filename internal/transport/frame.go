package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
// have actually arrived.
const readFrameStep = 1 << 20

// readFrame reads one length-prefixed frame and returns its payload: in buf
// when it fits buf's capacity, otherwise in a fresh, exactly sized slice. The
// length prefix is untrusted until the bytes behind it arrive: a frame of up
// to readFrameStep is allocated at once, a longer one in steps that at most
// double what has already been read, so a corrupt or hostile header costs one
// step, not maxFrameLen.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: length %d exceeds limit", ErrFrame, n)
	}
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

// An outgoing frame is never assembled: it is written into a
// register.WireWriter that keeps code blocks by reference, so what reaches the
// sender is the frame's short fields — length prefix, request ID, message
// header, the payload's integers and chunk headers, message trailer — in one
// small buffer, and the blocks as the code, or the object's state, holds them.
// All of it is read-only from the moment the frame is enqueued.

// ErrFrameTooLarge reports a frame that its sender refused to build because a
// receiver would reject its length (maxFrameLen) and drop the connection,
// failing every other call in flight on it.
var ErrFrameTooLarge = errors.New("transport: frame exceeds the size limit")

// writeRequestFrame leaves in w the request frame that carries rmw, whose
// codec is c, under env's addressing: on the wire exactly
// `u32 length | u64 requestID | env.AppendBinary` with the flat payload. The
// frame's inline bytes are cut from arena at their exact size; more is how
// many frames the round may still build, this one included.
func writeRequestFrame(w *register.WireWriter, arena *frameArena, more int, reqID uint64, env dsys.Envelope, c register.Codec, rmw dsys.RMW) error {
	inline, total, err := c.RequestSize(w, rmw)
	if err != nil {
		return fmt.Errorf("%w: encoding %s: %v", register.ErrCodec, c.Kind, err)
	}
	env.Kind = c.Kind
	n := 8 + env.EncodedLen(total)
	if n > maxFrameLen {
		return fmt.Errorf("%w: %s request of %d bytes", ErrFrameTooLarge, c.Kind, n)
	}
	w.Reset(startFrame(arena.cut(4+n-(total-inline), more), n, reqID), true)
	return register.WriteEnvelope(w, env, c, rmw, total)
}

// writeResponseFrame leaves in w the response frame for resp, framed the same
// way, its inline bytes in a buffer of their own. The payload of a StatusOK
// response is out — what Apply returned — encoded by c, the codec of the
// request's kind; should that fail, the frame carries StatusBadRequest
// instead. It returns the status sent.
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
	w.Reset(startFrame(make([]byte, 0, 4+n-(total-inline)), n, reqID), true)
	return resp.Status, register.WriteResponse(w, resp, c, out, total)
}

// startFrame begins a frame of n bytes (the length prefix not counted) in the
// empty buf: the prefix and the request ID.
func startFrame(buf []byte, n int, reqID uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(buf, uint32(n)), reqID)
}

// frameArena is the one allocation a round's request frames cut their inline
// bytes from.
type frameArena []byte

// arenaSlack is what a fresh arena allows each frame beyond the one it is
// sized from: a round's requests have one shape, but the names of their kinds
// need not have one length — a lean read mixes adaptive.read with
// adaptive.readts, two bytes longer.
const arenaSlack = 2

// cut returns an empty buffer with room bytes of capacity that nothing else
// will be cut from; more is how many buffers of about that size the round may
// still need, this one included, and sizes a fresh allocation when the arena
// cannot serve the cut.
func (a *frameArena) cut(room, more int) []byte {
	if cap(*a)-len(*a) < room {
		*a = make([]byte, 0, (room+arenaSlack)*more)
	}
	n := len(*a)
	*a = (*a)[:n+room]
	return (*a)[n : n : n+room]
}

// frameSender serializes frame writes onto one connection through a single
// writer goroutine. Senders enqueue frames; the writer drains whatever has
// accumulated and hands all of it to the socket in one vectored write — so
// frames enqueued by concurrent quorum rounds while a write is in progress
// coalesce into a single socket write, the connection-level analogue of the
// batched quorum engine's group commit. The queue is that write's argument
// already: the segments of the frames enqueued, in order.
type frameSender struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  net.Buffers
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

// send enqueues the frame w holds for writing. It fails once the sender is
// closed or the connection has errored.
func (s *frameSender) send(w *register.WireWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if s.err != nil {
			return s.err
		}
		return net.ErrClosed
	}
	s.queue = w.Segments(s.queue)
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
	var batch, writing net.Buffers
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		batch, s.queue = s.queue, batch[:0]
		s.mu.Unlock()

		// WriteTo consumes the slice header it is called on, so it gets a
		// copy and batch keeps the array for the queue to reuse.
		writing = batch
		_, err := writing.WriteTo(s.conn)
		clear(batch) // do not pin what has been written
		if err != nil {
			s.fail(err)
			return
		}
	}
}
