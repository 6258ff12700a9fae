package register

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"spacebounds/internal/dsys"
	"spacebounds/internal/oracle"
)

// This file is the per-provider codec registry: each register emulation
// registers, from its package init, a Codec per RMW kind it triggers, keyed
// both by a stable wire name ("abd.update") and by the RMW's concrete Go type.
// A transport encodes an outgoing RMW by type lookup, ships the
// dsys.Envelope, and the hosting process decodes it back into a live RMW
// value of the same concrete type — so Apply and Blocks() run on the decoded
// form and Definition-2 storage charging is computed exactly as in-process.

// Codec describes the wire encoding of one RMW kind and of its response.
type Codec struct {
	// Kind is the stable wire name, conventionally "<provider>.<rmw>".
	Kind string
	// ReadOnly marks kinds whose Apply never mutates base-object state. A
	// node restarted with empty state refuses read-only kinds per object
	// until a mutating RMW has repopulated it (recovery mode), which is what
	// keeps quorum reads regular across kill -9 restarts.
	ReadOnly bool
	// Encode serializes the RMW's parameters (not its kind or target).
	Encode func(rmw dsys.RMW) ([]byte, error)
	// EncodeShared, set by kinds whose payload ends in bytes that every RMW
	// of one round carries alike, is Encode in two runs: shared is that
	// ending — the same memory for each RMW of the round — and own what
	// precedes it, so own followed by shared is exactly Encode's output. A
	// transport that writes the runs one after the other never builds the
	// round's common bytes more than once.
	EncodeShared func(rmw dsys.RMW) (own, shared []byte, err error)
	// Decode rebuilds a live RMW from Encode's output.
	Decode func(payload []byte) (dsys.RMW, error)
	// EncodeResp serializes the response returned by the RMW's Apply.
	EncodeResp func(resp any) ([]byte, error)
	// DecodeResp rebuilds the response value from EncodeResp's output.
	DecodeResp func(payload []byte) (any, error)
}

// ErrCodec reports codec registry failures: unknown kinds, unregistered RMW
// types, malformed payloads.
var ErrCodec = errors.New("register: codec error")

var (
	codecMu     sync.RWMutex
	codecByKind = make(map[string]Codec)
	codecByType = make(map[reflect.Type]Codec)
)

// RegisterCodec installs a codec for the RMW kind whose concrete type is that
// of prototype. It panics on duplicate kind names or duplicate types, which
// would indicate two providers claiming the same wire name. Providers call it
// from init, one registration per RMW kind.
func RegisterCodec(c Codec, prototype dsys.RMW) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil || c.EncodeResp == nil || c.DecodeResp == nil {
		panic(fmt.Sprintf("register: incomplete codec for kind %q", c.Kind))
	}
	t := reflect.TypeOf(prototype)
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecByKind[c.Kind]; dup {
		panic(fmt.Sprintf("register: duplicate codec kind %q", c.Kind))
	}
	if _, dup := codecByType[t]; dup {
		panic(fmt.Sprintf("register: duplicate codec for type %v", t))
	}
	codecByKind[c.Kind] = c
	codecByType[t] = c
	dsys.RegisterKind(c.Kind)
}

// CodecKinds returns the registered RMW kind names, sorted.
func CodecKinds() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	kinds := make([]string, 0, len(codecByKind))
	for k := range codecByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// CodecByKind returns the codec registered under kind.
func CodecByKind(kind string) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecByKind[kind]
	return c, ok
}

// KindOf returns the wire kind registered for the RMW's concrete type.
func KindOf(rmw dsys.RMW) (string, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecByType[reflect.TypeOf(rmw)]
	return c.Kind, ok
}

// KindReadOnly reports whether kind is registered as read-only. Unknown kinds
// report false — a node in recovery refuses only what it can prove harmless.
func KindReadOnly(kind string) bool {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecByKind[kind].ReadOnly
}

// EncodeEnvelope serializes a live RMW into a wire envelope addressed at the
// given global base object on behalf of operation op. The envelope's Payload
// is the whole payload: what a journal records and Decode accepts.
func EncodeEnvelope(op dsys.OpID, object int, rmw dsys.RMW) (dsys.Envelope, error) {
	return encodeEnvelope(op, object, rmw, false)
}

// EncodeEnvelopeShared is EncodeEnvelope for a sender: where the kind has an
// EncodeShared, the payload's shared ending travels in the envelope's Shared
// field instead of being copied behind Payload. The envelope's wire encoding
// is byte for byte that of EncodeEnvelope's.
func EncodeEnvelopeShared(op dsys.OpID, object int, rmw dsys.RMW) (dsys.Envelope, error) {
	return encodeEnvelope(op, object, rmw, true)
}

func encodeEnvelope(op dsys.OpID, object int, rmw dsys.RMW, split bool) (dsys.Envelope, error) {
	codecMu.RLock()
	c, ok := codecByType[reflect.TypeOf(rmw)]
	codecMu.RUnlock()
	if !ok {
		return dsys.Envelope{}, fmt.Errorf("%w: no codec for RMW type %T", ErrCodec, rmw)
	}
	env := dsys.Envelope{Op: op, Object: object, Kind: c.Kind}
	var err error
	if split && c.EncodeShared != nil {
		env.Payload, env.Shared, err = c.EncodeShared(rmw)
	} else {
		env.Payload, err = c.Encode(rmw)
	}
	if err != nil {
		return dsys.Envelope{}, fmt.Errorf("%w: encoding %s: %v", ErrCodec, c.Kind, err)
	}
	return env, nil
}

// DecodeRMW rebuilds the live RMW carried by an envelope. The returned value
// has the registered concrete type, so its Apply and Blocks behave exactly as
// the original.
func DecodeRMW(env dsys.Envelope) (dsys.RMW, error) {
	c, ok := CodecByKind(env.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown RMW kind %q", ErrCodec, env.Kind)
	}
	if len(env.Shared) > 0 {
		return nil, fmt.Errorf("%w: decoding %s from a sender's envelope, whose Payload is not the whole payload", ErrCodec, env.Kind)
	}
	rmw, err := c.Decode(env.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding %s: %v", ErrCodec, env.Kind, err)
	}
	return rmw, nil
}

// EncodeResponse serializes the response of an applied RMW of the given kind.
func EncodeResponse(kind string, resp any) ([]byte, error) {
	c, ok := CodecByKind(kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown RMW kind %q", ErrCodec, kind)
	}
	payload, err := c.EncodeResp(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: encoding %s response: %v", ErrCodec, kind, err)
	}
	return payload, nil
}

// DecodeResponse rebuilds a response value of the given kind.
func DecodeResponse(kind string, payload []byte) (any, error) {
	c, ok := CodecByKind(kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown RMW kind %q", ErrCodec, kind)
	}
	resp, err := c.DecodeResp(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding %s response: %v", ErrCodec, kind, err)
	}
	return resp, nil
}

// WireWriter builds codec payloads. The encoding is deterministic and
// fixed-width (big-endian), so encode→decode→re-encode is byte-identical —
// the property FuzzEnvelopeRoundTrip pins down.
type WireWriter struct {
	b []byte
}

// Encoded sizes of the WireWriter fields. A codec whose payload carries code
// blocks sums them into Grow, so the payload is allocated once at its exact
// size instead of growing through the appends.
const (
	WireIntSize = 8
	WireTSSize  = 2 * WireIntSize
)

// ChunkWireSize returns the encoded size of one chunk.
func ChunkWireSize(c Chunk) int { return WireTSSize + 4*WireIntSize + 4 + len(c.Block.Data) }

// ChunksWireSize returns the encoded size of a counted chunk sequence.
func ChunksWireSize(cs []Chunk) int {
	n := 4
	for _, c := range cs {
		n += ChunkWireSize(c)
	}
	return n
}

// Grow sizes the buffer for size more bytes. Call it once, before the first
// field, with the payload's exact size.
func (w *WireWriter) Grow(size int) {
	if cap(w.b)-len(w.b) < size {
		w.b = append(make([]byte, 0, len(w.b)+size), w.b...)
	}
}

// Int appends a signed integer as a two's-complement big-endian u64.
func (w *WireWriter) Int(v int) { w.b = binary.BigEndian.AppendUint64(w.b, uint64(v)) }

// Bool appends a single 0/1 byte.
func (w *WireWriter) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Bytes appends a u32 length prefix followed by the bytes.
func (w *WireWriter) Bytes(p []byte) {
	if len(p) > math.MaxUint32 {
		panic(fmt.Sprintf("register: wire bytes of length %d", len(p)))
	}
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(p)))
	w.b = append(w.b, p...)
}

// TS appends a timestamp.
func (w *WireWriter) TS(t Timestamp) {
	w.Int(t.Num)
	w.Int(t.Client)
}

// Chunk appends a timestamped code block with its source tag.
func (w *WireWriter) Chunk(c Chunk) {
	w.TS(c.TS)
	w.Int(c.Block.Index)
	w.Bytes(c.Block.Data)
	w.Int(c.Source.Write.Client)
	w.Int(c.Source.Write.Seq)
	w.Int(c.Source.Index)
}

// Chunks appends a u32 count followed by each chunk.
func (w *WireWriter) Chunks(cs []Chunk) {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(cs)))
	for _, c := range cs {
		w.Chunk(c)
	}
}

// Finish returns the accumulated payload.
func (w *WireWriter) Finish() []byte { return w.b }

// WireReader consumes codec payloads written by WireWriter. The first short
// read latches an error; Finish reports it and rejects trailing bytes.
type WireReader struct {
	b   []byte
	off int
	err error
}

// NewWireReader wraps a payload.
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

func (r *WireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated payload at offset %d", ErrCodec, r.off)
	}
}

func (r *WireReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// Int reads a signed integer.
func (r *WireReader) Int() int {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int(int64(binary.BigEndian.Uint64(b)))
}

// Bool reads a 0/1 byte; any other value is an error.
func (r *WireReader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: bool byte %d", ErrCodec, b[0])
		}
		return false
	}
}

// Bytes reads a length-prefixed byte string into a fresh, exactly sized slice
// (never aliasing the payload buffer), which is what a base object may retain.
func (r *WireReader) Bytes() []byte {
	src := r.bytesAlias()
	if src == nil {
		return nil
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// bytesAlias reads a length-prefixed byte string as a view of the payload. The
// view keeps the payload's capacity behind it: cap > len marks it as not owned.
func (r *WireReader) bytesAlias() []byte {
	b := r.take(4)
	if b == nil {
		return nil
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	return r.take(int(n))
}

// TS reads a timestamp.
func (r *WireReader) TS() Timestamp { return Timestamp{Num: r.Int(), Client: r.Int()} }

// Chunk reads a chunk whose block bytes are an owned copy.
func (r *WireReader) Chunk() Chunk { return r.chunk(false) }

// ChunkAlias reads a chunk whose block bytes are a view of the payload: for
// parameters an Apply only reads and for responses a client only decodes.
// Whatever a base object retains must come from Chunk instead, or it would
// pin the whole frame the payload arrived in.
func (r *WireReader) ChunkAlias() Chunk { return r.chunk(true) }

func (r *WireReader) chunk(alias bool) Chunk {
	c := Chunk{TS: r.TS()}
	c.Block.Index = r.Int()
	if alias {
		c.Block.Data = r.bytesAlias()
	} else {
		c.Block.Data = r.Bytes()
	}
	c.Source = oracle.SourceTag{
		Write: oracle.WriteID{Client: r.Int(), Seq: r.Int()},
		Index: r.Int(),
	}
	return c
}

// Chunks reads a counted chunk sequence of owned copies.
func (r *WireReader) Chunks() []Chunk { return r.chunks(false) }

// ChunksAlias is Chunks with every block a view of the payload; see
// ChunkAlias for when that is allowed.
func (r *WireReader) ChunksAlias() []Chunk { return r.chunks(true) }

func (r *WireReader) chunks(alias bool) []Chunk {
	b := r.take(4)
	if b == nil {
		return nil
	}
	n := binary.BigEndian.Uint32(b)
	// Every chunk occupies at least its fixed-width fields, so a count
	// implying more bytes than remain is rejected before allocating.
	if uint64(n)*uint64(ChunkWireSize(Chunk{})) > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	out := make([]Chunk, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, r.chunk(alias))
	}
	return out
}

// Err returns the latched decode error, if any.
func (r *WireReader) Err() error { return r.err }

// Finish reports the latched error, or an error if payload bytes remain.
func (r *WireReader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCodec, len(r.b)-r.off)
	}
	return nil
}

// EmptyPayload is the shared Encode half of parameterless RMW kinds.
func EmptyPayload(dsys.RMW) ([]byte, error) { return nil, nil }

// RequireEmpty validates that a parameterless RMW kind's payload is empty.
func RequireEmpty(payload []byte) error {
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d bytes on parameterless RMW", ErrCodec, len(payload))
	}
	return nil
}

// EncodeBoolResp / DecodeBoolResp are the shared response codec of RMW kinds
// answering a plain bool.
func EncodeBoolResp(resp any) ([]byte, error) {
	v, ok := resp.(bool)
	if !ok {
		return nil, fmt.Errorf("%w: response %T is not bool", ErrCodec, resp)
	}
	var w WireWriter
	w.Bool(v)
	return w.Finish(), nil
}

// DecodeBoolResp decodes a bool response payload.
func DecodeBoolResp(payload []byte) (any, error) {
	r := NewWireReader(payload)
	v := r.Bool()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// EncodeChunkResp / DecodeChunkResp are the shared response codec of RMW
// kinds answering a single Chunk (the ABD and safe-register read rounds).
func EncodeChunkResp(resp any) ([]byte, error) {
	c, ok := resp.(Chunk)
	if !ok {
		return nil, fmt.Errorf("%w: response %T is not Chunk", ErrCodec, resp)
	}
	var w WireWriter
	w.Grow(ChunkWireSize(c))
	w.Chunk(c)
	return w.Finish(), nil
}

// DecodeChunkResp decodes a single-chunk response payload. The chunk's block
// is a view of the payload: the client decodes it into a value and drops it.
func DecodeChunkResp(payload []byte) (any, error) {
	r := NewWireReader(payload)
	c := r.ChunkAlias()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}
