package register_test

import (
	"bytes"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"

	// Link all four providers so their codecs are registered.
	_ "spacebounds/internal/register/abd"
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

// piecelessGCPayload is the GC a writer sends to an object whose Vf cannot
// hold its full replica: the gc layout around a zero chunk.
func piecelessGCPayload() []byte {
	var w register.WireWriter
	w.TS(register.Timestamp{Num: 4, Client: 0})
	w.Chunk(register.Chunk{})
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

// checkRoundTrip asserts the codec fixpoint for one kind: if payload decodes,
// then encode(decode(payload)) is canonical — decoding and re-encoding it
// reproduces the same bytes, at both the payload and the envelope level.
func checkRoundTrip(t *testing.T, kind string, payload []byte) {
	t.Helper()
	c, ok := register.CodecByKind(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
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
	rmw3, err := register.DecodeRMW(env2)
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
	if got := rmw3.Blocks(); got == nil != (rmw.Blocks() == nil) || len(got) != len(rmw.Blocks()) {
		t.Fatalf("%s: decoded RMW reports %d blocks, original %d", kind, len(got), len(rmw.Blocks()))
	}

	// A sender's envelope, whose payload may travel in two runs, is the same
	// bytes on the wire, and the two runs are the whole payload cut in two.
	// (A decoded RMW shares nothing and goes out whole; the runs of a write's
	// own updates are checked in the provider's package.)
	sent, err := register.EncodeEnvelopeShared(op, 5, rmw)
	if err != nil {
		t.Fatalf("%s: EncodeEnvelopeShared: %v", kind, err)
	}
	if !bytes.Equal(append(append([]byte{}, sent.Payload...), sent.Shared...), enc1) {
		t.Fatalf("%s: the sender's two runs are not the payload", kind)
	}
	if swire, err := sent.MarshalBinary(); err != nil || !bytes.Equal(swire, wire1) {
		t.Fatalf("%s: sender's envelope differs on the wire (%v)", kind, err)
	}

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
	}
	checkRoundTrip(t, "adaptive.gc", piecelessGCPayload())
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
// any payload that decodes must re-encode to a canonical byte-identical
// fixpoint, at the payload and the envelope level.
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
	f.Fuzz(func(t *testing.T, kindIdx uint8, payload []byte) {
		kind := kinds[int(kindIdx)%len(kinds)]
		checkRoundTrip(t, kind, payload)
	})
}
