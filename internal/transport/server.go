package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/trace"
)

type serverOptions struct {
	hosts    func(object int) bool
	recovery bool
}

// ServerOption configures a Server.
type ServerOption func(*serverOptions)

// WithHosts restricts the server to the base objects the predicate accepts;
// envelopes for other objects are answered StatusNotHosted. By default the
// server hosts every object of its cluster.
func WithHosts(hosts func(object int) bool) ServerOption {
	return func(o *serverOptions) { o.hosts = hosts }
}

// WithRecovery starts the server in recovery mode: read-only RMW kinds are
// refused per object (StatusRecovering) until a mutating RMW has applied to
// that object. A process restarted after a crash lost its in-memory base
// objects; refusing reads until a fresh write lands keeps a recovered node
// from serving stale (empty) state into a quorum, for every provider — once
// a write with a current timestamp applies, answering can only raise the
// timestamps the round observes.
func WithRecovery() ServerOption {
	return func(o *serverOptions) { o.recovery = true }
}

// MarkRepaired marks one base object as repaired without waiting for a
// mutating RMW: a node that replayed the object's state from its write-ahead
// log before serving already holds current (not empty) state, so read
// refusal would only add unavailability. Out-of-range IDs are ignored.
// A no-op unless the server runs with WithRecovery.
func (s *Server) MarkRepaired(object int) {
	if object >= 0 && object < len(s.repaired) {
		s.repaired[object].Store(true)
	}
}

// Server hosts a cluster's base objects behind the TCP frame protocol. Each
// accepted connection gets a reader loop and a pipelined frame sender, so
// requests from one client interleave with responses to others without
// head-of-line blocking on slow consumers.
type Server struct {
	cluster *dsys.Cluster
	opts    serverOptions
	inst    instruments // the cluster's registry and tracer

	// repaired[i] flips once object i has applied a mutating RMW; recovery
	// mode gates read-only kinds on it.
	repaired []atomic.Bool

	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer wraps a local cluster, instrumented with the cluster's registry
// and tracer (dsys.WithMetrics, dsys.WithTracer). The cluster is borrowed:
// closing the server does not close it.
func NewServer(cluster *dsys.Cluster, opts ...ServerOption) *Server {
	o := serverOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{
		cluster:  cluster,
		opts:     o,
		inst:     newInstruments(cluster),
		repaired: make([]atomic.Bool, cluster.N()),
		conns:    make(map[net.Conn]struct{}),
	}
	return s
}

// Listen binds the address (use "127.0.0.1:0" for an ephemeral port) and
// starts accepting connections. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return nil, net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	sender := newFrameSender(conn)
	defer sender.close()
	br := bufio.NewReader(conn)
	var cs connState
	for {
		if err := s.serveNext(&cs, br); err != nil {
			return
		}
		if cs.w.Len() == 0 {
			continue // a posted request: nobody waits for an answer
		}
		if err := sender.send(&cs.w); err != nil {
			return
		}
	}
}

// connState is what a server connection keeps from one request to the next.
// Requests are served strictly in turn and nothing decoded from a request
// outlives serve — what an Apply or the journal keeps, it copies — so a frame
// and the RMW decoded from it are dead when serve returns: the next frame is
// read over the one before, and the next RMW of a kind decoded over the last.
type connState struct {
	// buf is the frame buffer. Only one of up to readFrameStep is kept, so a
	// connection pins no more.
	buf []byte
	// rmws holds the RMW last decoded of each kind. One decoded from a frame
	// that is not kept is dropped with it.
	rmws register.Decoded
	// w frames every response in turn; the sender has taken a frame's
	// segments by the time send returns.
	w register.WireWriter
}

// serveNext reads the connection's next request, serves it, and leaves the
// response frame in cs.w — or, for a request of a posted kind
// (register.Codec.Posted), leaves cs.w empty: whatever its status, such a
// request is answered by nothing, and counted only by the server's metrics.
func (s *Server) serveNext(cs *connState, br *bufio.Reader) error {
	frame, err := readFrame(br, cs.buf)
	if err != nil {
		return err
	}
	kept := cap(frame) <= readFrameStep
	if kept {
		cs.buf = frame
	}
	if len(frame) < 8 {
		return fmt.Errorf("%w: request frame of %d bytes", ErrFrame, len(frame))
	}
	reqID := binary.BigEndian.Uint64(frame[:8])
	var start time.Time
	if s.inst.reg != nil {
		start = time.Now()
	}
	resp, codec, out := s.serve(frame[8:], &cs.rmws)
	status := resp.Status
	if codec.Posted {
		cs.w.Reset(reuse(cs.w.Finish()), true)
	} else {
		status, err = writeResponseFrame(&cs.w, reqID, resp, codec, out)
	}
	s.inst.observeServe(start, status)
	if !kept {
		clear(cs.rmws)
	}
	return err
}

// serve executes one request envelope against the cluster and builds the
// response, all but its payload: for StatusOK that is out, what Apply
// returned, still to be encoded by the request kind's codec c — into the
// response frame directly, its blocks by reference to the object's state
// (writeResponseFrame). c is the codec of the request's kind on every path
// that got as far as reading one, so that a posted request is never answered.
// The RMW is decoded over the last one of its kind in rmws, and out may be
// that RMW's answer. Faults are reported as typed statuses, never by dropping
// the request — the client decides whether the round can still reach quorum.
func (s *Server) serve(body []byte, rmws *register.Decoded) (resp dsys.Response, c register.Codec, out any) {
	env, err := dsys.UnmarshalEnvelope(body)
	if err != nil {
		return dsys.Response{Status: dsys.StatusBadRequest, Detail: err.Error()}, c, nil
	}
	resp = dsys.Response{Op: env.Op, Object: env.Object}
	c, known := register.CodecByKind(env.Kind)
	if s.opts.hosts != nil && !s.opts.hosts(env.Object) {
		resp.Status = dsys.StatusNotHosted
		return resp, c, nil
	}
	if !known {
		resp.Status = dsys.StatusBadRequest
		resp.Detail = fmt.Sprintf("%v: unknown RMW kind %q", register.ErrCodec, env.Kind)
		return resp, c, nil
	}
	rmw, err := rmws.Decode(c, env)
	if err != nil {
		resp.Status = dsys.StatusBadRequest
		resp.Detail = err.Error()
		return resp, c, nil
	}
	if s.opts.recovery && c.ReadOnly &&
		env.Object >= 0 && env.Object < len(s.repaired) && !s.repaired[env.Object].Load() {
		resp.Status = dsys.StatusRecovering
		return resp, c, nil
	}
	// A wire trace context opens the node-side apply span: it parents under
	// the client's RPC span by the envelope's span word, and the journal's
	// WAL stages parent under it in turn.
	var tc trace.Context
	var sp trace.Pending
	if tr := s.inst.tr; tr != nil && env.Trace != 0 {
		sp = tr.Start(trace.Context{Trace: env.Trace, Span: env.Span}, trace.StageApply)
		sp.Span.Note = env.Kind
		tc = sp.Context()
	}
	out, err = s.cluster.ApplyOneTraced(env.Object, rmw, tc)
	sp.Done()
	if err != nil {
		switch {
		case errors.Is(err, dsys.ErrUnknownObject):
			resp.Status = dsys.StatusUnknownObject
		case errors.Is(err, dsys.ErrRetiredObject):
			resp.Status = dsys.StatusRetired
		case errors.Is(err, dsys.ErrObjectDown):
			resp.Status = dsys.StatusObjectDown
		case errors.Is(err, dsys.ErrHalted):
			resp.Status = dsys.StatusHalted
		case errors.Is(err, dsys.ErrJournalFailed):
			resp.Status = dsys.StatusJournalFailed
			resp.Detail = err.Error()
		default:
			resp.Status = dsys.StatusBadRequest
			resp.Detail = err.Error()
		}
		return resp, c, nil
	}
	if !c.ReadOnly && env.Object >= 0 && env.Object < len(s.repaired) {
		s.repaired[env.Object].Store(true)
	}
	resp.Status = dsys.StatusOK
	return resp, c, out
}

// Close stops accepting, closes every connection, and waits for the handler
// goroutines. The backing cluster is left running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return nil
}
