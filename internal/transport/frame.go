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

// frame is one outgoing frame in parts under one length prefix: head is
// `u32 length | u64 requestID | message header`, payload the codec's bytes
// exactly as the codec returned them, shared the rest of a payload whose
// ending several frames have in common (an envelope's Shared; empty
// otherwise), tail the message trailer. head and tail are cut from one small
// allocation; payload and shared are handed to the socket as they stand, never
// copied into a frame buffer. The parts are read-only from the moment the
// frame is enqueued.
type frame struct{ head, payload, shared, tail []byte }

// requestFrameRoom is the head-and-tail room a request frame needs for env:
// the frame prefix, the envelope's fixed header and trailer, and its kind.
func requestFrameRoom(env dsys.Envelope) int { return 12 + 64 + len(env.Kind) }

// appendRequestFrame frames an envelope: on the wire it is exactly
// `u32 length | u64 requestID | env.AppendBinary`. The head and tail are
// built in buf, which must be empty; with requestFrameRoom of capacity nothing
// is allocated, so a round cuts the buffers of all its frames from one
// allocation (see headArena).
func appendRequestFrame(buf []byte, reqID uint64, env dsys.Envelope) (frame, error) {
	head, err := env.AppendHeader(startFrame(buf, reqID))
	if err != nil {
		return frame{}, err
	}
	return sealFrame(head, env.AppendTrailer(head), env.Payload, env.Shared), nil
}

// responseFrame frames a response the same way, in a buffer of its own.
func responseFrame(reqID uint64, resp dsys.Response) (frame, error) {
	head, err := resp.AppendHeader(startFrame(make([]byte, 0, 12+48+len(resp.Detail)), reqID))
	if err != nil {
		return frame{}, err
	}
	return sealFrame(head, resp.AppendTrailer(head), resp.Payload, nil), nil
}

// startFrame begins a frame's head-and-tail buffer in the empty buf: it leaves
// the length prefix blank and writes the request ID.
func startFrame(buf []byte, reqID uint64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, 0, 0, 0, 0), reqID)
}

// headArena is the one allocation a round's request frames cut their
// head-and-tail buffers from.
type headArena []byte

// cut returns an empty buffer with room bytes of capacity that nothing else
// will be cut from; more is how many buffers of that size the round may still
// need, this one included, and sizes a fresh allocation when the arena cannot
// serve the cut.
func (a *headArena) cut(room, more int) []byte {
	if cap(*a)-len(*a) < room {
		*a = make([]byte, 0, room*more)
	}
	n := len(*a)
	*a = (*a)[:n+room]
	return (*a)[n : n : n+room]
}

// sealFrame cuts whole — the head followed by the trailer — at the head's
// length and fills in the length prefix, which covers all the parts.
func sealFrame(head, whole, payload, shared []byte) frame {
	binary.BigEndian.PutUint32(whole, uint32(len(whole)-4+len(payload)+len(shared)))
	return frame{head: whole[:len(head)], payload: payload, shared: shared, tail: whole[len(head):]}
}

// frameSender serializes frame writes onto one connection through a single
// writer goroutine. Senders enqueue frames; the writer drains whatever has
// accumulated and hands all of it to the socket in one vectored write — so
// frames enqueued by concurrent quorum rounds while a write is in progress
// coalesce into a single socket write, the connection-level analogue of the
// batched quorum engine's group commit.
type frameSender struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
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

// send enqueues one frame for writing. It fails once the sender is closed or
// the connection has errored.
func (s *frameSender) send(f frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if s.err != nil {
			return s.err
		}
		return net.ErrClosed
	}
	s.queue = append(s.queue, f)
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
	var batch []frame
	// writing's address goes to WriteTo, so it lives on the heap: declared
	// here it is one cell per sender, not one per socket write.
	var parts, writing net.Buffers
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

		parts = parts[:0]
		for _, f := range batch {
			parts = append(parts, f.head)
			for _, part := range [...][]byte{f.payload, f.shared, f.tail} {
				if len(part) > 0 {
					parts = append(parts, part)
				}
			}
		}
		clear(batch) // the queue reuses this array; do not pin written payloads
		// WriteTo consumes the slice header it is called on, so it gets a
		// copy and parts keeps the array for the next batch.
		writing = parts
		if _, err := writing.WriteTo(s.conn); err != nil {
			s.fail(err)
			return
		}
	}
}
