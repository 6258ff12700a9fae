package dsys

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Envelope is the wire form of one triggered RMW: the high-level operation it
// belongs to, the global ID of the base object it targets, the registered
// codec kind of the RMW, and the codec-encoded parameters. Envelopes are what
// a transport moves between a client and the process hosting the base object;
// the codec registry in internal/register turns them back into live RMW
// values, so Blocks() accounting on the receiving side is computed from the
// decoded form and Definition-2 charging is unchanged.
type Envelope struct {
	Op      OpID
	Object  int
	Kind    string
	Payload []byte
	// Trace and Span carry the operation's trace context (see
	// internal/trace): the sampled trace ID and the client-side span the
	// node's stages should parent under. Both zero means untraced, and an
	// untraced envelope is encoded in the version-1 layout, so peers
	// predating the trace extension still decode every untraced frame.
	Trace uint64
	Span  uint64
}

// Status is the typed outcome of a remotely applied RMW. Anything other than
// StatusOK means the RMW did not take effect at the addressed base object;
// the transport maps statuses back onto the package's sentinel errors so
// remote failures are errors.Is-distinguishable from local ones.
type Status uint8

// Response statuses.
const (
	// StatusOK: the RMW took effect and Payload carries the encoded response.
	StatusOK Status = iota + 1
	// StatusObjectDown: the base object has crashed (fail-stop until restart).
	StatusObjectDown
	// StatusRetired: the base object was decommissioned by reconfiguration.
	StatusRetired
	// StatusUnknownObject: no base object with that global ID exists.
	StatusUnknownObject
	// StatusNotHosted: the object exists but this node does not host it.
	StatusNotHosted
	// StatusRecovering: the node restarted with empty state and refuses
	// read-only RMWs on this object until a mutating RMW has repopulated it.
	StatusRecovering
	// StatusHalted: the hosting cluster is shutting down.
	StatusHalted
	// StatusBadRequest: the envelope could not be decoded (unknown kind or
	// malformed payload).
	StatusBadRequest
	// StatusJournalFailed: the node's journal has failed, so it refuses every
	// RMW it would have to record; read-only RMWs are still served.
	StatusJournalFailed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusObjectDown:
		return "object-down"
	case StatusRetired:
		return "retired"
	case StatusUnknownObject:
		return "unknown-object"
	case StatusNotHosted:
		return "not-hosted"
	case StatusRecovering:
		return "recovering"
	case StatusHalted:
		return "halted"
	case StatusBadRequest:
		return "bad-request"
	case StatusJournalFailed:
		return "journal-failed"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Err maps a non-OK status onto the package's sentinel errors; StatusOK maps
// to nil. Statuses without a dedicated sentinel map to ErrRemote.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusObjectDown:
		return ErrObjectDown
	case StatusRetired:
		return ErrRetiredObject
	case StatusUnknownObject, StatusNotHosted:
		return ErrUnknownObject
	case StatusRecovering:
		return ErrRecovering
	case StatusHalted:
		return ErrHalted
	case StatusJournalFailed:
		return ErrJournalFailed
	default:
		return fmt.Errorf("%w: %v", ErrRemote, s)
	}
}

// Response is the wire form of one RMW outcome: the echoed operation identity
// and object, a typed status, and — for StatusOK — the codec-encoded
// response value. Detail carries a human-readable elaboration for error
// statuses (never consulted programmatically).
type Response struct {
	Op      OpID
	Object  int
	Status  Status
	Payload []byte
	Detail  string
}

// envelopeVersion tags the wire layout so a future format change is
// detectable instead of silently mis-parsed. Version 2 extends version 1
// with a trailing trace context; encoders emit the oldest version that can
// carry the envelope (version 1 when untraced), and decoders accept both, so
// the extension is invisible to untraced traffic and to old peers receiving
// it.
const (
	envelopeVersion   = 1
	envelopeVersionV2 = 2
)

// ErrEnvelope reports a malformed envelope or response on the wire.
var ErrEnvelope = errors.New("dsys: malformed envelope")

// AppendBinary appends the envelope's wire encoding to b and returns the
// extended slice. Layout (big-endian):
//
//	u8  version (1 untraced, 2 traced)
//	u64 op.client   u64 op.seq   u8 op.kind
//	u64 object
//	u16 len(kind)    kind bytes
//	u32 len(payload) payload bytes
//	u64 trace   u64 span          (version 2 only)
//
// The encoding is AppendHeader, the payload bytes, AppendTrailer: a writer
// that produces the payload in place — into a socket's segments or a journal's
// frame buffer (register.WriteEnvelope) — calls those two around it and never
// holds the payload as one slice.
func (e Envelope) AppendBinary(b []byte) ([]byte, error) {
	b, err := e.AppendHeader(b, len(e.Payload))
	if err != nil {
		return nil, err
	}
	return e.AppendTrailer(append(b, e.Payload...)), nil
}

// AppendHeader appends everything that precedes the payload bytes, ending in
// the length prefix of a payload of payloadLen bytes. Payload itself is not
// consulted.
func (e Envelope) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	if len(e.Kind) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: kind of length %d", ErrEnvelope, len(e.Kind))
	}
	if payloadLen > math.MaxUint32 {
		return nil, fmt.Errorf("%w: payload of length %d", ErrEnvelope, payloadLen)
	}
	if e.traced() {
		b = append(b, envelopeVersionV2)
	} else {
		b = append(b, envelopeVersion)
	}
	b = appendOpID(b, e.Op)
	b = binary.BigEndian.AppendUint64(b, uint64(e.Object))
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Kind)))
	b = append(b, e.Kind...)
	return binary.BigEndian.AppendUint32(b, uint32(payloadLen)), nil
}

// AppendTrailer appends what follows the payload bytes: the trace context of
// a version-2 envelope, nothing for version 1.
func (e Envelope) AppendTrailer(b []byte) []byte {
	if e.traced() {
		b = binary.BigEndian.AppendUint64(b, e.Trace)
		b = binary.BigEndian.AppendUint64(b, e.Span)
	}
	return b
}

func (e Envelope) traced() bool { return e.Trace != 0 || e.Span != 0 }

// EncodedLen returns the length of the envelope's wire encoding around a
// payload of payloadLen bytes.
func (e Envelope) EncodedLen(payloadLen int) int {
	n := 1 + opIDLen + 8 + 2 + len(e.Kind) + 4 + payloadLen
	if e.traced() {
		n += 16
	}
	return n
}

// MarshalBinary encodes the envelope.
func (e Envelope) MarshalBinary() ([]byte, error) {
	return e.AppendBinary(make([]byte, 0, e.EncodedLen(len(e.Payload))))
}

// wireKinds holds the kind names this process can decode, each mapped to
// itself, so that UnmarshalEnvelope hands out the registered string instead of
// allocating a copy per envelope. It is filled at start-up by RegisterKind and
// replaced whole on each registration, so decoding reads it without a lock.
var (
	wireKindsMu sync.Mutex
	wireKinds   atomic.Pointer[map[string]string]
)

// RegisterKind records an RMW kind name for UnmarshalEnvelope to resolve
// without allocating. The codec registry in internal/register calls it for
// every kind it installs; nothing decoded from the wire ever reaches the
// table, so hostile input cannot grow it.
func RegisterKind(kind string) {
	wireKindsMu.Lock()
	defer wireKindsMu.Unlock()
	next := map[string]string{kind: kind}
	if cur := wireKinds.Load(); cur != nil {
		for k := range *cur {
			next[k] = k
		}
	}
	wireKinds.Store(&next)
}

// wireKind returns the kind named by b: the registered string when there is
// one, otherwise a fresh copy — which no codec will accept, so the envelope
// ends in StatusBadRequest like any unknown kind.
func wireKind(b []byte) string {
	if kinds := wireKinds.Load(); kinds != nil {
		if k, ok := (*kinds)[string(b)]; ok { // a lookup keyed by string(b) does not allocate
			return k
		}
	}
	return string(b)
}

// UnmarshalEnvelope decodes an envelope, rejecting trailing bytes. Both wire
// versions are accepted: a version-1 (pre-trace) envelope decodes with an
// empty trace context rather than an error.
func UnmarshalEnvelope(b []byte) (Envelope, error) {
	var e Envelope
	cur := cursor{b: b}
	v := cur.u8()
	if v != envelopeVersion && v != envelopeVersionV2 {
		return e, fmt.Errorf("%w: version %d", ErrEnvelope, v)
	}
	e.Op = cur.opID()
	e.Object = int(cur.u64())
	e.Kind = wireKind(cur.bytes16())
	e.Payload = cur.bytes32()
	if v == envelopeVersionV2 {
		e.Trace = cur.u64()
		e.Span = cur.u64()
	}
	if err := cur.finish(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// AppendBinary appends the response's wire encoding to b. Layout mirrors
// Envelope with the status byte in place of the kind:
//
//	u8  version
//	u64 op.client   u64 op.seq   u8 op.kind
//	u64 object
//	u8  status
//	u32 len(payload) payload bytes
//	u16 len(detail)  detail bytes
//
// Like the envelope's, the encoding is AppendHeader, the payload bytes,
// AppendTrailer.
func (r Response) AppendBinary(b []byte) ([]byte, error) {
	b, err := r.AppendHeader(b, len(r.Payload))
	if err != nil {
		return nil, err
	}
	return r.AppendTrailer(append(b, r.Payload...)), nil
}

// AppendHeader appends everything that precedes the payload bytes, ending in
// the length prefix of a payload of payloadLen bytes. Payload itself is not
// consulted.
func (r Response) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	if payloadLen > math.MaxUint32 {
		return nil, fmt.Errorf("%w: payload of length %d", ErrEnvelope, payloadLen)
	}
	b = append(b, envelopeVersion)
	b = appendOpID(b, r.Op)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Object))
	b = append(b, byte(r.Status))
	return binary.BigEndian.AppendUint32(b, uint32(payloadLen)), nil
}

// AppendTrailer appends what follows the payload bytes: the detail string,
// cut to what its u16 length prefix can carry.
func (r Response) AppendTrailer(b []byte) []byte {
	detail := r.Detail
	if len(detail) > math.MaxUint16 {
		detail = detail[:math.MaxUint16]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(detail)))
	return append(b, detail...)
}

// EncodedLen returns the length of the response's wire encoding around a
// payload of payloadLen bytes.
func (r Response) EncodedLen(payloadLen int) int {
	return 1 + opIDLen + 8 + 1 + 4 + payloadLen + 2 + min(len(r.Detail), math.MaxUint16)
}

// MarshalBinary encodes the response.
func (r Response) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.EncodedLen(len(r.Payload))))
}

// UnmarshalResponse decodes a response, rejecting trailing bytes.
func UnmarshalResponse(b []byte) (Response, error) {
	var r Response
	cur := cursor{b: b}
	if v := cur.u8(); v != envelopeVersion {
		return r, fmt.Errorf("%w: version %d", ErrEnvelope, v)
	}
	r.Op = cur.opID()
	r.Object = int(cur.u64())
	r.Status = Status(cur.u8())
	r.Payload = cur.bytes32()
	r.Detail = string(cur.bytes16())
	if err := cur.finish(); err != nil {
		return Response{}, err
	}
	return r, nil
}

// opIDLen is the encoded size of an OpID.
const opIDLen = 8 + 8 + 1

func appendOpID(b []byte, op OpID) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(op.Client))
	b = binary.BigEndian.AppendUint64(b, uint64(op.Seq))
	return append(b, byte(op.Kind))
}

// cursor is a bounds-checked reader over a wire buffer: the first short read
// latches an error and every later read returns zero values, so decoders can
// parse straight-line and check once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated at offset %d", ErrEnvelope, c.off)
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cursor) bytes16() []byte {
	b := c.take(2)
	if b == nil {
		return nil
	}
	return c.take(int(binary.BigEndian.Uint16(b)))
}

func (c *cursor) bytes32() []byte {
	b := c.take(4)
	if b == nil {
		return nil
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	return c.take(int(n))
}

func (c *cursor) opID() OpID {
	return OpID{Client: int(int64(c.u64())), Seq: int(int64(c.u64())), Kind: OpKind(c.u8())}
}

func (c *cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrEnvelope, len(c.b)-c.off)
	}
	return nil
}

// RoundInvoker delivers one client's quorum round of RMWs to base objects
// identified by *global* object IDs and waits for at least quorum responses.
// It is the seam a remote cluster plugs a transport into: the in-process
// engines satisfy it trivially, and the TCP transport implements it by
// shipping envelopes. The returned map is keyed by global object ID and is
// the caller's to keep or change. Implementations may return a partial map
// together with an error (wrapping ErrQuorumUnavailable) when fewer than
// quorum objects answered. targets and makeRMW are lent for the call: an
// implementation reads the one and calls the other before it returns, and
// keeps neither.
type RoundInvoker interface {
	InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error)
}
