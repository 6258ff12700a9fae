package register_test

import (
	"bytes"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"

	// Link all four providers so their codecs are registered.
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
)

// mkChunk builds a chunk with non-trivial field values.
func mkChunk(salt int) register.Chunk {
	return register.Chunk{
		TS:     register.Timestamp{Num: 7 + salt, Client: 3},
		Block:  erasure.Block{Index: 2 + salt, Data: []byte{0xde, 0xad, 0xbe}},
		Source: oracle.SourceTag{Write: oracle.WriteID{Client: 3, Seq: 9 + salt}, Index: 2 + salt},
	}
}

// seedPayloads returns one well-formed payload per registered RMW kind, built
// directly in the wire format (provider RMW types are unexported, so seeds
// are constructed at the byte level).
func seedPayloads() map[string][]byte {
	chunk := func(salt int) []byte {
		var w register.WireWriter
		w.Chunk(mkChunk(salt))
		return w.Finish()
	}
	ts := func() []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: 5, Client: 1})
		return w.Finish()
	}
	gc := func() []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: 4, Client: 0})
		w.Chunk(mkChunk(1))
		return w.Finish()
	}
	return map[string][]byte{
		"abd.read":            nil,
		"abd.update":          chunk(0),
		"safe.read":           nil,
		"safe.update":         chunk(1),
		"ec.read":             nil,
		"ec.store":            chunk(2),
		"ec.seedstore":        chunk(3),
		"ec.commit":           ts(),
		"adaptive.read":       nil,
		"adaptive.readts":     nil,
		"adaptive.update":     adaptiveUpdatePayload(0),
		"adaptive.seedupdate": adaptiveUpdatePayload(1),
		"adaptive.gc":         gc(),
	}
}

// longBlock is a block a sender's writer holds by reference instead of
// copying: at 2 KiB it is past any threshold worth copying below.
var longBlock = bytes.Repeat([]byte{0xB1, 0x0C}, 1<<10)

// longChunk is mkChunk around longBlock.
func longChunk(salt int) register.Chunk {
	c := mkChunk(salt)
	c.Block.Data = longBlock
	return c
}

// longUpdatePayload is a follow-up update as tcp-large sends it, scaled down:
// a long piece and a replica of two long blocks around a short one.
func longUpdatePayload() []byte {
	var w register.WireWriter
	w.Int(3)
	w.TS(register.Timestamp{Num: 8, Client: 4})
	w.TS(register.Timestamp{Num: 6, Client: 2})
	w.Chunk(longChunk(0))
	w.Chunks([]register.Chunk{longChunk(1), mkChunk(2), longChunk(3)})
	return w.Finish()
}

// longPayloads returns, for every kind whose RMW carries a block, a payload
// whose blocks are long: the ones a sender does not copy.
func longPayloads() map[string][]byte {
	chunk := func() []byte {
		var w register.WireWriter
		w.Chunk(longChunk(0))
		return w.Finish()
	}
	gc := func() []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: 4, Client: 0})
		w.Chunk(longChunk(1))
		return w.Finish()
	}
	return map[string][]byte{
		"abd.update":          chunk(),
		"safe.update":         chunk(),
		"ec.store":            chunk(),
		"ec.seedstore":        chunk(),
		"adaptive.update":     longUpdatePayload(),
		"adaptive.seedupdate": longUpdatePayload(),
		"adaptive.gc":         gc(),
	}
}

// seedResponses returns well-formed response payloads for every registered
// kind, with short blocks and with long ones.
func seedResponses() map[string][][]byte {
	chunk := func(c register.Chunk) []byte {
		var w register.WireWriter
		w.Chunk(c)
		return w.Finish()
	}
	chunks := func(cs ...register.Chunk) []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: 5, Client: 1})
		w.Chunks(cs)
		return w.Finish()
	}
	readTS := func() []byte {
		var w register.WireWriter
		w.TS(register.Timestamp{Num: 5, Client: 1})
		w.Int(9)
		return w.Finish()
	}
	reads := [][]byte{chunks(), chunks(mkChunk(0), mkChunk(1)), chunks(longChunk(0), mkChunk(1), longChunk(2))}
	flag := [][]byte{{0}, {1}}
	return map[string][][]byte{
		"abd.read":            {chunk(mkChunk(0)), chunk(longChunk(0))},
		"abd.update":          flag,
		"safe.read":           {chunk(mkChunk(1)), chunk(longChunk(1))},
		"safe.update":         flag,
		"ec.read":             reads,
		"ec.store":            flag,
		"ec.seedstore":        flag,
		"ec.commit":           flag,
		"adaptive.read":       reads,
		"adaptive.readts":     {readTS()},
		"adaptive.update":     {{1, 1}, {0, 0}, {0, 0, 1}},
		"adaptive.seedupdate": {{1, 0}, {0, 0, 1}},
		"adaptive.gc":         {nil},
	}
}

// piecelessGCPayload is the GC a writer sends to an object whose Vf cannot
// hold its full replica: the gc layout around a zero chunk.
func piecelessGCPayload() []byte {
	var w register.WireWriter
	w.TS(register.Timestamp{Num: 4, Client: 0})
	w.Chunk(register.Chunk{})
	return w.Finish()
}

// firstUpdatePayload is the update a writer sends first: its piece and no
// full replica.
func firstUpdatePayload() []byte {
	var w register.WireWriter
	w.Int(2)
	w.TS(register.Timestamp{Num: 8, Client: 4})
	w.TS(register.Timestamp{Num: 6, Client: 2})
	w.Chunk(mkChunk(0))
	w.Chunks(nil)
	return w.Finish()
}

// adaptiveUpdatePayload builds an update payload carrying a piece plus a
// two-chunk full replica.
func adaptiveUpdatePayload(salt int) []byte {
	var w register.WireWriter
	w.Int(2) // k
	w.TS(register.Timestamp{Num: 8 + salt, Client: 4})
	w.TS(register.Timestamp{Num: 6, Client: 2})
	w.Chunk(mkChunk(salt))
	w.Chunks([]register.Chunk{mkChunk(salt + 1), mkChunk(salt + 2)})
	return w.Finish()
}

// checkSinks asserts that every sink gets the bytes of the flat encoding:
// want is AppendBinary of a message whose Payload is the codec's flat output,
// and write the WriteEnvelope or WriteResponse call that produces the same
// message in place. A sender's writer holds long blocks by reference — held
// bytes of them, by the counting pass — and its segments, joined, are what it
// hands the socket; the journal's writer copies everything into its frame
// buffer. Both write behind a prefix already in the buffer, as a frame's is.
func checkSinks(t *testing.T, what string, want []byte, held int, write func(w *register.WireWriter) error) {
	t.Helper()
	prefix := []byte("frame prefix")
	whole := append(append([]byte{}, prefix...), want...)
	var w register.WireWriter
	for _, byRef := range []bool{true, false} {
		w.Reset(append([]byte{}, prefix...), byRef)
		if err := write(&w); err != nil {
			t.Fatalf("%s (byRef=%v): %v", what, byRef, err)
		}
		segs := w.Segments(nil)
		if got := bytes.Join(segs, nil); !bytes.Equal(got, whole) || w.Len() != len(whole) {
			t.Fatalf("%s (byRef=%v): the writer's %d bytes differ from AppendBinary of the flat encoding (%d bytes):\n  %x\n  %x", what, byRef, w.Len(), len(whole), got, whole)
		}
		if !byRef && (len(segs) != 1 || !bytes.Equal(w.Finish(), whole)) {
			t.Fatalf("%s: the flat writer's buffer is not the whole encoding (%d segments)", what, len(segs))
		}
		if byRef && len(w.Finish()) != len(whole)-held {
			t.Fatalf("%s: %d bytes inline, the counting pass said %d", what, len(w.Finish()), len(whole)-held)
		}
	}
}

// leftovers returns RMWs of c's kind as a server connection or a client round
// holds them before it decodes the next message of the kind over one: each
// decoded from one of the kind's seed payloads and carrying the answer of one
// of its seed responses, where its kind has a slot for it.
func leftovers(t *testing.T, c register.Codec) []dsys.RMW {
	t.Helper()
	payloads := [][]byte{seedPayloads()[c.Kind]}
	if long, ok := longPayloads()[c.Kind]; ok {
		payloads = append(payloads, long)
	}
	var out []dsys.RMW
	for _, payload := range payloads {
		for _, resp := range seedResponses()[c.Kind] {
			rmw, err := c.Decode(payload)
			if err != nil {
				t.Fatalf("%s: seed payload does not decode: %v", c.Kind, err)
			}
			if _, err := c.DecodeResp(rmw, resp); err != nil {
				t.Fatalf("%s: seed response does not decode: %v", c.Kind, err)
			}
			out = append(out, rmw)
		}
	}
	return out
}

// checkResponseRoundTrip is checkRoundTrip's property for payload read as a
// response of the kind: if it decodes, its re-encoding is a fixpoint, and a
// response frame built in place carries it byte for byte. Decoded into an RMW
// that holds another answer, it is the same response.
func checkResponseRoundTrip(t *testing.T, c register.Codec, payload []byte) {
	t.Helper()
	resp, err := c.DecodeResp(nil, payload)
	if err != nil {
		return
	}
	enc1, err := c.EncodeResp(resp)
	if err != nil {
		t.Fatalf("%s: encode of decoded response failed: %v", c.Kind, err)
	}
	for _, left := range leftovers(t, c) {
		again, err := c.DecodeResp(left, payload)
		if err != nil {
			t.Fatalf("%s: a response that decodes fresh fails into an RMW left from another seed: %v", c.Kind, err)
		}
		if enc, err := c.EncodeResp(again); err != nil || !bytes.Equal(enc, enc1) {
			t.Fatalf("%s: decoded into an RMW left from another seed, the response re-encodes as\n  %x (%v)\nwant\n  %x", c.Kind, enc, err, enc1)
		}
	}
	resp2, err := c.DecodeResp(nil, enc1)
	if err != nil {
		t.Fatalf("%s: re-decode of canonical response failed: %v", c.Kind, err)
	}
	if enc2, err := c.EncodeResp(resp2); err != nil || !bytes.Equal(enc1, enc2) {
		t.Fatalf("%s: canonical response not a fixpoint (%v):\n  enc1 %x\n  enc2 %x", c.Kind, err, enc1, enc2)
	}
	var w register.WireWriter
	inline, total, err := c.ResponseSize(&w, resp)
	if err != nil || total != len(enc1) {
		t.Fatalf("%s: response counted as %d bytes (%v), encoded as %d", c.Kind, total, err, len(enc1))
	}
	for _, msg := range []dsys.Response{
		{Op: dsys.OpID{Client: 11, Seq: 42, Kind: dsys.OpRead}, Object: 5, Status: dsys.StatusOK},
		{Object: 1, Status: dsys.StatusOK, Detail: "a detail behind the payload"},
	} {
		flat := msg
		flat.Payload = enc1
		want, err := flat.MarshalBinary()
		if err != nil || len(want) != msg.EncodedLen(total) {
			t.Fatalf("%s: response of %d bytes, EncodedLen says %d (%v)", c.Kind, len(want), msg.EncodedLen(total), err)
		}
		checkSinks(t, c.Kind+" response", want, total-inline, func(w *register.WireWriter) error {
			return register.WriteResponse(w, msg, c, resp, total)
		})
	}
}

// checkRoundTrip asserts the codec fixpoint for one kind: if payload decodes,
// then encode(decode(payload)) is canonical — decoding and re-encoding it
// reproduces the same bytes, at both the payload and the envelope level.
func checkRoundTrip(t *testing.T, kind string, payload []byte) {
	t.Helper()
	c, ok := register.CodecByKind(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	checkResponseRoundTrip(t, c, payload)
	rmw, err := c.Decode(payload)
	if err != nil {
		return // malformed input is allowed; it just must not round-trip wrong
	}
	enc1, err := c.Encode(rmw)
	if err != nil {
		t.Fatalf("%s: encode of decoded RMW failed: %v", kind, err)
	}
	rmw2, err := c.Decode(enc1)
	if err != nil {
		t.Fatalf("%s: re-decode of canonical payload failed: %v", kind, err)
	}
	enc2, err := c.Encode(rmw2)
	if err != nil {
		t.Fatalf("%s: re-encode failed: %v", kind, err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("%s: canonical payload not a fixpoint:\n  enc1 %x\n  enc2 %x", kind, enc1, enc2)
	}
	// Decoded over an RMW of its kind left from another seed, as a server
	// connection decodes every request, it is the same RMW.
	for _, left := range leftovers(t, c) {
		again, err := c.DecodeInto(left, payload)
		if err != nil {
			t.Fatalf("%s: a payload that decodes fresh fails over an RMW left from another seed: %v", kind, err)
		}
		if enc, err := c.Encode(again); err != nil || !bytes.Equal(enc, enc1) || len(again.AppendBlocks(nil)) != len(rmw.AppendBlocks(nil)) {
			t.Fatalf("%s: decoded over an RMW left from another seed, the payload re-encodes as\n  %x (%v)\nwant\n  %x", kind, enc, err, enc1)
		}
	}

	// Envelope level: wrap, marshal, unmarshal, decode, re-encode.
	op := dsys.OpID{Client: 11, Seq: 42, Kind: dsys.OpWrite}
	env1, err := register.EncodeEnvelope(op, 5, rmw)
	if err != nil {
		t.Fatalf("%s: EncodeEnvelope: %v", kind, err)
	}
	wire1, err := env1.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: envelope marshal: %v", kind, err)
	}
	env2, err := dsys.UnmarshalEnvelope(wire1)
	if err != nil {
		t.Fatalf("%s: envelope unmarshal: %v", kind, err)
	}
	rmw3, _, err := register.DecodeRMW(env2)
	if err != nil {
		t.Fatalf("%s: DecodeRMW: %v", kind, err)
	}
	env3, err := register.EncodeEnvelope(env2.Op, env2.Object, rmw3)
	if err != nil {
		t.Fatalf("%s: re-EncodeEnvelope: %v", kind, err)
	}
	wire2, err := env3.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: envelope re-marshal: %v", kind, err)
	}
	if !bytes.Equal(wire1, wire2) {
		t.Fatalf("%s: envelope bytes not a fixpoint:\n  %x\n  %x", kind, wire1, wire2)
	}
	if got := rmw3.AppendBlocks(nil); got == nil != (rmw.AppendBlocks(nil) == nil) || len(got) != len(rmw.AppendBlocks(nil)) {
		t.Fatalf("%s: decoded RMW reports %d blocks, original %d", kind, len(got), len(rmw.AppendBlocks(nil)))
	}

	// The envelope a sender or the journal writes in place, without ever
	// holding the payload, is those same bytes.
	var w register.WireWriter
	inline, total, err := c.RequestSize(&w, rmw)
	if err != nil || total != len(enc1) {
		t.Fatalf("%s: payload counted as %d bytes (%v), encoded as %d", kind, total, err, len(enc1))
	}
	if len(wire1) != env1.EncodedLen(total) {
		t.Fatalf("%s: envelope of %d bytes, EncodedLen says %d", kind, len(wire1), env1.EncodedLen(total))
	}
	checkSinks(t, kind, wire1, total-inline, func(w *register.WireWriter) error {
		return register.WriteEnvelope(w, dsys.Envelope{Op: op, Object: 5}, c, rmw, total)
	})

	// Versioned case: the same envelope carrying a trace context must encode
	// as version 2, round-trip the trace words, and stay a byte fixpoint —
	// while the untraced wire above stays version 1 (the pre-trace layout old
	// peers decode).
	if wire1[0] != 1 {
		t.Fatalf("%s: untraced envelope encoded as version %d, want 1", kind, wire1[0])
	}
	traced := env1
	traced.Trace = uint64(len(payload))<<32 | 0x5EED
	traced.Span = uint64(len(kind)) + 1
	twire1, err := traced.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: traced envelope marshal: %v", kind, err)
	}
	if twire1[0] != 2 {
		t.Fatalf("%s: traced envelope encoded as version %d, want 2", kind, twire1[0])
	}
	tenv, err := dsys.UnmarshalEnvelope(twire1)
	if err != nil {
		t.Fatalf("%s: traced envelope unmarshal: %v", kind, err)
	}
	if tenv.Trace != traced.Trace || tenv.Span != traced.Span {
		t.Fatalf("%s: trace context round-tripped to (%d, %d), want (%d, %d)",
			kind, tenv.Trace, tenv.Span, traced.Trace, traced.Span)
	}
	twire2, err := tenv.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: traced envelope re-marshal: %v", kind, err)
	}
	if !bytes.Equal(twire1, twire2) {
		t.Fatalf("%s: traced envelope bytes not a fixpoint:\n  %x\n  %x", kind, twire1, twire2)
	}
	if len(twire1) != traced.EncodedLen(total) {
		t.Fatalf("%s: traced envelope of %d bytes, EncodedLen says %d", kind, len(twire1), traced.EncodedLen(total))
	}
	checkSinks(t, kind+" traced", twire1, total-inline, func(w *register.WireWriter) error {
		return register.WriteEnvelope(w, dsys.Envelope{Op: op, Object: 5, Trace: traced.Trace, Span: traced.Span}, c, rmw, total)
	})
	// And a v1 (pre-trace) frame always yields the empty trace context.
	if env2.Trace != 0 || env2.Span != 0 {
		t.Fatalf("%s: v1 envelope decoded with trace context (%d, %d)", kind, env2.Trace, env2.Span)
	}
}

// TestEnvelopeRoundTripAllKinds deterministically verifies the round-trip
// property on a well-formed payload of every registered kind — the fuzz
// seeds double as a conformance test, so a provider whose codec drifts fails
// plain `go test` too.
func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	seeds := seedPayloads()
	for _, kind := range register.CodecKinds() {
		payload, ok := seeds[kind]
		if !ok {
			t.Errorf("no seed payload for registered kind %q — add one", kind)
			continue
		}
		c, _ := register.CodecByKind(kind)
		if _, err := c.Decode(payload); err != nil {
			t.Errorf("%s: seed payload does not decode: %v", kind, err)
			continue
		}
		checkRoundTrip(t, kind, payload)
		if long, ok := longPayloads()[kind]; ok {
			if _, err := c.Decode(long); err != nil {
				t.Errorf("%s: long seed payload does not decode: %v", kind, err)
			}
			checkRoundTrip(t, kind, long)
		} else if rmw, _ := c.Decode(payload); len(rmw.AppendBlocks(nil)) > 0 {
			t.Errorf("%s carries blocks and has no long seed payload — add one", kind)
		}
		responses := seedResponses()[kind]
		if len(responses) == 0 {
			t.Errorf("no seed response for registered kind %q — add one", kind)
		}
		for _, resp := range responses {
			if _, err := c.DecodeResp(nil, resp); err != nil {
				t.Errorf("%s: seed response %x does not decode: %v", kind, resp, err)
			}
			checkRoundTrip(t, kind, resp)
		}
	}
	checkRoundTrip(t, "adaptive.gc", piecelessGCPayload())
	checkRoundTrip(t, "adaptive.update", firstUpdatePayload())
	checkRoundTrip(t, "adaptive.seedupdate", firstUpdatePayload())
	// Read-only flags: exactly the four read rounds and the adaptive write's
	// timestamp query.
	wantRO := map[string]bool{"abd.read": true, "safe.read": true, "ec.read": true, "adaptive.read": true, "adaptive.readts": true}
	for _, kind := range register.CodecKinds() {
		if register.KindReadOnly(kind) != wantRO[kind] {
			t.Errorf("%s: ReadOnly = %v, want %v", kind, register.KindReadOnly(kind), wantRO[kind])
		}
	}
}

// FuzzEnvelopeRoundTrip fuzzes the codec registry across all four providers:
// any payload that decodes — as a request of its kind, as a response, or both —
// must re-encode to a canonical byte-identical fixpoint, at the payload and
// the envelope level, and the message a sender or the journal writes in place
// must be AppendBinary of that flat payload, byte for byte. Decoded over an
// RMW of its kind left from another seed, it must re-encode as it does fresh.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	kinds := register.CodecKinds()
	index := make(map[string]int, len(kinds))
	for i, k := range kinds {
		index[k] = i
	}
	for kind, payload := range seedPayloads() {
		i, ok := index[kind]
		if !ok {
			f.Fatalf("seed for unregistered kind %q", kind)
		}
		f.Add(uint8(i), payload)
	}
	f.Add(uint8(index["adaptive.gc"]), piecelessGCPayload())
	f.Add(uint8(index["adaptive.update"]), firstUpdatePayload())
	for kind, payload := range longPayloads() {
		f.Add(uint8(index[kind]), payload)
	}
	for kind, responses := range seedResponses() {
		for _, payload := range responses {
			f.Add(uint8(index[kind]), payload)
		}
	}
	f.Fuzz(func(t *testing.T, kindIdx uint8, payload []byte) {
		kind := kinds[int(kindIdx)%len(kinds)]
		checkRoundTrip(t, kind, payload)
	})
}
