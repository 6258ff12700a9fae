package register

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

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

// Codec describes the wire encoding of one RMW kind and of its response. A
// provider states each layout once, as a write into a WireWriter; where the
// bytes land — one flat slice, a socket's segments, the journal's frame
// buffer — is the writer's business (see WireWriter).
type Codec struct {
	// Kind is the stable wire name, conventionally "<provider>.<rmw>".
	Kind string
	// ReadOnly marks kinds whose Apply never mutates base-object state. A
	// node restarted with empty state refuses read-only kinds per object
	// until a mutating RMW has repopulated it (recovery mode), which is what
	// keeps quorum reads regular across kill -9 restarts.
	ReadOnly bool
	// Posted marks kinds whose answer nobody reads: a round of the kind is
	// sent, not awaited. A remote round of it returns once its requests are
	// on their way, a node applies such a request and answers nothing, and
	// the journal leaves its record's fsync to the next append that is
	// answered. So it also means that losing the RMW — to a dead connection,
	// or its unsynced record to a crash — leaves the object in a state it has
	// already passed through, as a client that crashed before the round
	// would have. The in-process engines run it like any other kind.
	Posted bool
	// Write serializes the RMW's parameters (not its kind or target) into w.
	// It must write the same fields whenever it is handed the same RMW: every
	// encoding is a counting pass followed by a writing one.
	Write func(w *WireWriter, rmw dsys.RMW) error
	// DecodeInto rebuilds a live RMW from what Write wrote: over dst when dst
	// is an RMW of this kind, every field of it overwritten, and into a new
	// one when dst is nil. The RMW's code blocks are views of payload, and it
	// is marked as borrowing them: its Apply copies the one it stores (Retain)
	// and nothing else. Decode is DecodeInto without a destination.
	DecodeInto func(dst dsys.RMW, payload []byte) (dsys.RMW, error)
	// WriteResp serializes the response returned by the RMW's Apply into w,
	// under the same rule as Write.
	WriteResp func(w *WireWriter, resp any) error
	// DecodeResp rebuilds the response value from what WriteResp wrote. sent
	// is the RMW the request carried, or nil: a kind whose RMW carries its
	// answer (a read) decodes the response into that slot — of a new RMW when
	// sent is nil — and returns a pointer to it, as Apply does.
	DecodeResp func(sent dsys.RMW, payload []byte) (any, error)

	pos int // the kind's place in the registry: its slot in a Decoded
}

// Decode rebuilds a live RMW from what Write wrote, into a new RMW.
func (c Codec) Decode(payload []byte) (dsys.RMW, error) { return c.DecodeInto(nil, payload) }

// Reuse returns dst as the *T it is, or a new T when it is not one (nil, say):
// the RMW a codec decodes a request or an answer into.
func Reuse[T any](dst dsys.RMW) *T {
	if p, ok := any(dst).(*T); ok && p != nil {
		return p
	}
	return new(T)
}

// Encode returns the RMW's parameters as one flat, exactly sized payload:
// what Decode accepts and an Envelope carries in Payload.
func (c Codec) Encode(rmw dsys.RMW) ([]byte, error) { return encodeFlat(c.Write, rmw) }

// EncodeResp is Encode for the response returned by the RMW's Apply.
func (c Codec) EncodeResp(resp any) ([]byte, error) { return encodeFlat(c.WriteResp, resp) }

// encodeFlat runs write twice: to count the bytes, then to fill a buffer of
// exactly that size.
func encodeFlat[T any](write func(*WireWriter, T) error, v T) ([]byte, error) {
	var w WireWriter
	_, total, err := measure(&w, write, v)
	if err != nil || total == 0 {
		return nil, err
	}
	w.Reset(make([]byte, 0, total), false)
	if err := write(&w, v); err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// measure runs write against w in counting mode, leaving what w holds as it
// is: total is how many bytes write produces, inline how many of them a writer
// that keeps blocks by reference puts in its own buffer.
func measure[T any](w *WireWriter, write func(*WireWriter, T) error, v T) (inline, total int, err error) {
	w.counting, w.inline, w.held = true, 0, 0
	err = write(w, v)
	w.counting = false
	return w.inline, w.inline + w.held, err
}

// RequestSize reports what Write produces for rmw, as measure does. The pass
// runs on w so that a sender who owns a writer allocates nothing for it.
func (c Codec) RequestSize(w *WireWriter, rmw dsys.RMW) (inline, total int, err error) {
	return measure(w, c.Write, rmw)
}

// ResponseSize is RequestSize for WriteResp.
func (c Codec) ResponseSize(w *WireWriter, resp any) (inline, total int, err error) {
	return measure(w, c.WriteResp, resp)
}

// ErrCodec reports codec registry failures: unknown kinds, unregistered RMW
// types, malformed payloads.
var ErrCodec = errors.New("register: codec error")

// codecTable is the registry: every codec by kind name and by RMW type. Every
// frame on either side of the wire looks a codec up in it, so it is read
// without a lock: a registration builds the next table beside the current one
// and swaps it in whole, and a table once published is never written again.
type codecTable struct {
	byKind map[string]Codec
	byType map[reflect.Type]Codec
}

var (
	codecMu  sync.Mutex // serializes registrations
	codecs   atomic.Pointer[codecTable]
	noCodecs codecTable // the table before the first registration
)

// loadCodecs returns the current table.
func loadCodecs() *codecTable {
	if t := codecs.Load(); t != nil {
		return t
	}
	return &noCodecs
}

// RegisterCodec installs a codec for the RMW kind whose concrete type is that
// of prototype. It panics on duplicate kind names or duplicate types, which
// would indicate two providers claiming the same wire name. Providers call it
// from init, one registration per RMW kind.
func RegisterCodec(c Codec, prototype dsys.RMW) {
	if c.Kind == "" || c.Write == nil || c.DecodeInto == nil || c.WriteResp == nil || c.DecodeResp == nil {
		panic(fmt.Sprintf("register: incomplete codec for kind %q", c.Kind))
	}
	t := reflect.TypeOf(prototype)
	codecMu.Lock()
	defer codecMu.Unlock()
	cur := loadCodecs()
	if _, dup := cur.byKind[c.Kind]; dup {
		panic(fmt.Sprintf("register: duplicate codec kind %q", c.Kind))
	}
	if _, dup := cur.byType[t]; dup {
		panic(fmt.Sprintf("register: duplicate codec for type %v", t))
	}
	c.pos = len(cur.byKind)
	next := &codecTable{
		byKind: make(map[string]Codec, len(cur.byKind)+1),
		byType: make(map[reflect.Type]Codec, len(cur.byType)+1),
	}
	maps.Copy(next.byKind, cur.byKind)
	maps.Copy(next.byType, cur.byType)
	next.byKind[c.Kind] = c
	next.byType[t] = c
	codecs.Store(next)
	dsys.RegisterKind(c.Kind)
}

// CodecKinds returns the registered RMW kind names, sorted.
func CodecKinds() []string {
	return slices.Sorted(maps.Keys(loadCodecs().byKind))
}

// CodecByKind returns the codec registered under kind.
func CodecByKind(kind string) (Codec, bool) {
	c, ok := loadCodecs().byKind[kind]
	return c, ok
}

// CodecOf returns the codec registered for the RMW's concrete type.
func CodecOf(rmw dsys.RMW) (Codec, bool) {
	c, ok := loadCodecs().byType[reflect.TypeOf(rmw)]
	return c, ok
}

// KindOf returns the wire kind registered for the RMW's concrete type.
func KindOf(rmw dsys.RMW) (string, bool) {
	c, ok := CodecOf(rmw)
	return c.Kind, ok
}

// KindReadOnly reports whether kind is registered as read-only. Unknown kinds
// report false — a node in recovery refuses only what it can prove harmless.
func KindReadOnly(kind string) bool {
	return loadCodecs().byKind[kind].ReadOnly
}

// EncodeEnvelope serializes a live RMW into a wire envelope addressed at the
// given global base object on behalf of operation op, its parameters one flat
// payload.
func EncodeEnvelope(op dsys.OpID, object int, rmw dsys.RMW) (dsys.Envelope, error) {
	c, ok := CodecOf(rmw)
	if !ok {
		return dsys.Envelope{}, fmt.Errorf("%w: no codec for RMW type %T", ErrCodec, rmw)
	}
	payload, err := c.Encode(rmw)
	if err != nil {
		return dsys.Envelope{}, fmt.Errorf("%w: encoding %s: %v", ErrCodec, c.Kind, err)
	}
	return dsys.Envelope{Op: op, Object: object, Kind: c.Kind, Payload: payload}, nil
}

// WriteEnvelope writes into w, behind what w already holds, the envelope that
// carries rmw to env's object on behalf of env's operation (and under its
// trace context): byte for byte what AppendBinary makes of EncodeEnvelope's
// result, without that payload ever being built. c is rmw's codec and
// payloadLen the total its RequestSize reported. A sender's writer keeps the
// blocks by reference and the journal's copies them into its frame buffer;
// neither allocates.
func WriteEnvelope(w *WireWriter, env dsys.Envelope, c Codec, rmw dsys.RMW, payloadLen int) error {
	env.Kind = c.Kind
	b, err := env.AppendHeader(w.b, payloadLen)
	if err != nil {
		return err
	}
	w.b = b
	if err := writePayload(w, c.Write, rmw, payloadLen); err != nil {
		return fmt.Errorf("%w: encoding %s: %v", ErrCodec, c.Kind, err)
	}
	w.b = env.AppendTrailer(w.b)
	return nil
}

// WriteResponse is WriteEnvelope for a response: resp's header and trailer
// around, for StatusOK, the encoding of out — what Apply returned — by the
// codec of the RMW's kind, payloadLen being the total its ResponseSize
// reported. Any other status carries no payload (payloadLen 0, c and out
// unused).
func WriteResponse(w *WireWriter, resp dsys.Response, c Codec, out any, payloadLen int) error {
	b, err := resp.AppendHeader(w.b, payloadLen)
	if err != nil {
		return err
	}
	w.b = b
	if resp.Status == dsys.StatusOK {
		if err := writePayload(w, c.WriteResp, out, payloadLen); err != nil {
			return fmt.Errorf("%w: encoding %s response: %v", ErrCodec, c.Kind, err)
		}
	}
	w.b = resp.AppendTrailer(w.b)
	return nil
}

// writePayload runs write and holds it to the length the counting pass
// promised the message's length prefix.
func writePayload[T any](w *WireWriter, write func(*WireWriter, T) error, v T, payloadLen int) error {
	start := w.Len()
	if err := write(w, v); err != nil {
		return err
	}
	if got := w.Len() - start; got != payloadLen {
		return fmt.Errorf("wrote %d bytes after counting %d", got, payloadLen)
	}
	return nil
}

// DecodeRMW rebuilds the live RMW carried by an envelope, and returns it with
// the codec of its kind, which also encodes its answer. The RMW has the
// registered concrete type, so its Apply and Blocks behave exactly as the
// original.
func DecodeRMW(env dsys.Envelope) (dsys.RMW, Codec, error) {
	c, ok := CodecByKind(env.Kind)
	if !ok {
		return nil, c, fmt.Errorf("%w: unknown RMW kind %q", ErrCodec, env.Kind)
	}
	rmw, err := decodeRMW(c, env, nil)
	return rmw, c, err
}

// Decoded holds the RMW last decoded of each registered kind, in the kind's
// place in the registry, and decodes the next envelope of that kind over it.
// Its holder must be done with an RMW, and with the answer its Apply returned,
// before it decodes the next of the kind: a server connection, which serves
// its requests in turn.
type Decoded []dsys.RMW

// Decode is DecodeRMW over the RMW of env's kind that d holds, which d then
// holds instead. c is the codec of env's kind (CodecByKind), which its holder
// has looked up already.
func (d *Decoded) Decode(c Codec, env dsys.Envelope) (dsys.RMW, error) { return decodeRMW(c, env, d) }

func decodeRMW(c Codec, env dsys.Envelope, d *Decoded) (dsys.RMW, error) {
	var dst dsys.RMW
	if d != nil {
		if c.pos >= len(*d) {
			// A holder meets most kinds sooner or later: room for every kind
			// registered, at once.
			*d = append(*d, make([]dsys.RMW, len(loadCodecs().byKind)-len(*d))...)
		}
		dst = (*d)[c.pos]
	}
	rmw, err := c.DecodeInto(dst, env.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding %s: %v", ErrCodec, env.Kind, err)
	}
	if d != nil {
		(*d)[c.pos] = rmw
	}
	return rmw, nil
}

// EncodeResponse serializes the response of an applied RMW of the given kind
// as one flat payload.
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

// DecodeResponse rebuilds a response value of the given kind, into sent, the
// RMW the request carried, when the kind's answers ride in their RMW
// (Codec.DecodeResp).
func DecodeResponse(kind string, sent dsys.RMW, payload []byte) (any, error) {
	c, ok := CodecByKind(kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown RMW kind %q", ErrCodec, kind)
	}
	resp, err := c.DecodeResp(sent, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding %s response: %v", ErrCodec, kind, err)
	}
	return resp, nil
}

// WireWriter is the one encoder every codec writes into. The encoding is
// deterministic and fixed-width (big-endian), so encode→decode→re-encode is
// byte-identical — the property FuzzEnvelopeRoundTrip pins down.
//
// What differs between its users is where a code block's bytes go. The zero
// value, and any writer Reset without byRef, is flat: every field is appended
// to one buffer, which Finish returns — Codec.Encode's payload, or the
// journal's frame buffer. A writer Reset with byRef keeps blocks of at least
// refMinLen bytes by reference instead: its buffer gets the short fields, and
// Segments hands a vectored write the buffer cut where each block belongs and
// the blocks as they stand; Append gathers several such writers' frames into
// one, copying their short fields and keeping their references. Block bytes are
// immutable once produced (DESIGN.md, "Data path and buffer ownership", rule
// 1), so a reference stays true for as long as someone holds it; nothing
// block-sized is allocated or copied between the code and the socket.
type WireWriter struct {
	b        []byte
	byRef    bool
	refs     []wireRef // blocks left out of b, in stream order
	refBytes int       // their total length

	// A counting pass (measure) writes nothing and adds up what a pass with
	// byRef would put in the buffer (inline) and leave out of it (held).
	counting     bool
	inline, held int
}

// wireRef is a block held by reference: p belongs in the stream at offset off
// of the buffer.
type wireRef struct {
	off int
	p   []byte
}

// refMinLen is the shortest block a by-reference writer leaves out of its
// buffer. A shorter one is copied inline: a reference is two more entries in
// the socket's iovec, which from 512 bytes up cost less than allocating room
// for the block and copying it, and below 256 cannot be told apart from that
// (BenchmarkSegmentsWrite; DESIGN.md, "Data path and buffer ownership", has
// the readings). Not an option.
const refMinLen = 512

// Encoded sizes of the fixed-width fields.
const (
	wireIntSize = 8
	wireTSSize  = 2 * wireIntSize
)

// ChunkWireSize returns the encoded size of one chunk.
func ChunkWireSize(c Chunk) int { return wireTSSize + 4*wireIntSize + 4 + len(c.Block.Data) }

// Reset empties the writer and points it at buf: what it writes next follows
// the bytes buf already holds (a frame's prefix, say). byRef selects whether
// long blocks are held by reference or copied like everything else.
func (w *WireWriter) Reset(buf []byte, byRef bool) {
	clear(w.refs) // a reused writer must not pin the blocks of its last use
	w.b, w.byRef, w.refs, w.refBytes = buf, byRef, w.refs[:0], 0
}

// Len returns how many bytes the encoding has so far, blocks held by reference
// included.
func (w *WireWriter) Len() int { return len(w.b) + w.refBytes }

// Finish returns the writer's buffer: the whole encoding when the writer is
// flat, the inline bytes alone when it holds blocks by reference.
func (w *WireWriter) Finish() []byte { return w.b }

// Segments appends the encoding to dst as the run of slices a vectored write
// takes — the buffer, cut wherever a block held by reference belongs, and
// those blocks — and returns the extended dst. The slices are views: of the
// writer's buffer, which the caller must not write to again, and of the
// blocks.
func (w *WireWriter) Segments(dst [][]byte) [][]byte {
	from := 0
	for _, r := range w.refs {
		if r.off > from {
			dst = append(dst, w.b[from:r.off])
		}
		dst = append(dst, r.p)
		from = r.off
	}
	if from < len(w.b) {
		dst = append(dst, w.b[from:])
	}
	return dst
}

// Append adds src's encoding to the end of w's: src's buffer is copied into
// w's, and the blocks src holds by reference are held by w the same way. Once
// Append returns, src may be reset and written to again; the blocks stay
// shared (DESIGN.md, "Data path and buffer ownership", rule 1).
func (w *WireWriter) Append(src *WireWriter) {
	from := len(w.b)
	w.b = append(w.b, src.b...)
	for _, r := range src.refs {
		w.refs = append(w.refs, wireRef{off: from + r.off, p: r.p})
	}
	w.refBytes += src.refBytes
}

// Int appends a signed integer as a two's-complement big-endian u64.
func (w *WireWriter) Int(v int) {
	if w.counting {
		w.inline += wireIntSize
		return
	}
	w.b = binary.BigEndian.AppendUint64(w.b, uint64(v))
}

// Bool appends a single 0/1 byte.
func (w *WireWriter) Bool(v bool) {
	switch {
	case w.counting:
		w.inline++
	case v:
		w.b = append(w.b, 1)
	default:
		w.b = append(w.b, 0)
	}
}

// count appends a u32 length or element count.
func (w *WireWriter) count(n int) {
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("register: wire count of %d", n))
	}
	if w.counting {
		w.inline += 4
		return
	}
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(n))
}

// Bytes appends a u32 length prefix followed by the bytes — which a
// by-reference writer, if there are at least refMinLen of them, keeps as p
// itself: the caller must not write to p afterwards.
func (w *WireWriter) Bytes(p []byte) {
	w.count(len(p))
	switch long := len(p) >= refMinLen; {
	case w.counting && long:
		w.held += len(p)
	case w.counting:
		w.inline += len(p)
	case w.byRef && long:
		w.refs = append(w.refs, wireRef{off: len(w.b), p: p})
		w.refBytes += len(p)
	default:
		w.b = append(w.b, p...)
	}
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
	w.count(len(cs))
	for _, c := range cs {
		w.Chunk(c)
	}
}

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

// Chunk reads a chunk whose block bytes are an owned copy: what a state codec
// restores into a base object.
func (r *WireReader) Chunk() Chunk { return r.chunk(false) }

// ChunkAlias reads a chunk whose block bytes are a view of the payload: every
// RMW parameter and every response chunk. An RMW decoded this way borrows its
// frame and says so, and its Apply copies a block only where it stores it
// (Retain), or the object would pin the whole frame the payload arrived in.
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
func (r *WireReader) Chunks() []Chunk { return r.chunks(nil, false) }

// ChunksAlias is Chunks with every block a view of the payload; see
// ChunkAlias for when that is allowed.
func (r *WireReader) ChunksAlias() []Chunk { return r.chunks(nil, true) }

// ChunksAliasAppend is ChunksAlias appending to dst: a list is allocated only
// when the chunks do not fit in dst's capacity. A read round's answer decodes
// into the window its RMW carries.
func (r *WireReader) ChunksAliasAppend(dst []Chunk) []Chunk { return r.chunks(dst, true) }

// chunks appends the counted sequence to dst. Without a dst the list is
// exactly sized, empty or not.
func (r *WireReader) chunks(dst []Chunk, alias bool) []Chunk {
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
	out := dst
	if dst == nil || cap(dst)-len(dst) < int(n) {
		out = make([]Chunk, len(dst), len(dst)+int(n))
		copy(out, dst)
	}
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

// EmptyPayload is the shared Write half of parameterless RMW kinds.
func EmptyPayload(*WireWriter, dsys.RMW) error { return nil }

// RequireEmpty validates that a parameterless RMW kind's payload is empty.
func RequireEmpty(payload []byte) error {
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d bytes on parameterless RMW", ErrCodec, len(payload))
	}
	return nil
}

// WriteBoolResp / DecodeBoolResp are the shared response codec of RMW kinds
// answering a plain bool.
func WriteBoolResp(w *WireWriter, resp any) error {
	v, ok := resp.(bool)
	if !ok {
		return fmt.Errorf("%w: response %T is not bool", ErrCodec, resp)
	}
	w.Bool(v)
	return nil
}

// DecodeBoolResp decodes a bool response payload.
func DecodeBoolResp(_ dsys.RMW, payload []byte) (any, error) {
	r := NewWireReader(payload)
	v := r.Bool()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// WriteChunkResp / DecodeChunkResp are the shared response codec of RMW
// kinds answering a single Chunk (the ABD and safe-register read rounds),
// which rides in the RMW: the answer is a *Chunk.
func WriteChunkResp(w *WireWriter, resp any) error {
	c, ok := resp.(*Chunk)
	if !ok {
		return fmt.Errorf("%w: response %T is not *Chunk", ErrCodec, resp)
	}
	w.Chunk(*c)
	return nil
}

// DecodeChunkResp decodes a single-chunk response payload into dst, the
// answer slot of the RMW that was sent, and returns dst. The chunk's block is
// a view of the payload: the client decodes it into a value and drops it.
func DecodeChunkResp(dst *Chunk, payload []byte) (any, error) {
	r := NewWireReader(payload)
	*dst = r.ChunkAlias()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
}
