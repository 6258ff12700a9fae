package register_test

import (
	"errors"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// unregisteredRMW has no codec: the registry must refuse it by type.
type unregisteredRMW struct{}

func (unregisteredRMW) Apply(dsys.State) any                             { return nil }
func (unregisteredRMW) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

func TestCodecRegistryLookups(t *testing.T) {
	kinds := register.CodecKinds()
	if len(kinds) < 13 {
		t.Fatalf("only %d codec kinds registered: %v", len(kinds), kinds)
	}
	for _, kind := range kinds {
		c, ok := register.CodecByKind(kind)
		if !ok || c.Kind != kind {
			t.Fatalf("CodecByKind(%q) = (%+v, %v)", kind, c, ok)
		}
	}
	// Every registered kind is known to the envelope decoder, which then
	// resolves it without allocating a string per envelope.
	for _, kind := range kinds {
		wire, err := dsys.Envelope{Kind: kind}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = dsys.UnmarshalEnvelope(wire) }); n != 0 {
			t.Errorf("decoding an envelope of kind %q allocates %.0f times, want 0", kind, n)
		}
	}
	// Exactly the four provider read rounds and the adaptive write's
	// timestamp query are read-only: that's the set a recovering node refuses
	// before repair.
	readOnly := map[string]bool{"abd.read": true, "safe.read": true, "ec.read": true, "adaptive.read": true, "adaptive.readts": true}
	for _, kind := range kinds {
		if register.KindReadOnly(kind) != readOnly[kind] {
			t.Fatalf("KindReadOnly(%q) = %v, want %v", kind, !readOnly[kind], readOnly[kind])
		}
	}
	// Only the adaptive write's GC is posted: its answer is empty, and losing
	// it leaves a state the printed algorithm reaches when its writer
	// crashes (DESIGN.md, "the posted GC round").
	for _, kind := range kinds {
		c, _ := register.CodecByKind(kind)
		if want := kind == "adaptive.gc"; c.Posted != want {
			t.Fatalf("codec %q Posted = %v, want %v", kind, c.Posted, want)
		}
	}
	if register.KindReadOnly("no.such.kind") {
		t.Fatal("unknown kind reported read-only")
	}
	if _, ok := register.CodecByKind("no.such.kind"); ok {
		t.Fatal("unknown kind resolved")
	}
	if _, ok := register.KindOf(unregisteredRMW{}); ok {
		t.Fatal("unregistered RMW type resolved")
	}
}

func TestCodecErrorPaths(t *testing.T) {
	op := dsys.OpID{Client: 1, Seq: 2, Kind: dsys.OpRead}
	if _, err := register.EncodeEnvelope(op, 0, unregisteredRMW{}); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("EncodeEnvelope of unregistered type: %v", err)
	}
	if _, _, err := register.DecodeRMW(dsys.Envelope{Kind: "no.such.kind"}); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("DecodeRMW of unknown kind: %v", err)
	}
	if _, err := register.EncodeResponse("no.such.kind", true); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("EncodeResponse of unknown kind: %v", err)
	}
	if _, err := register.DecodeResponse("no.such.kind", nil, nil); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("DecodeResponse of unknown kind: %v", err)
	}
	// A malformed payload must latch a decode error, not panic or misparse.
	for _, kind := range register.CodecKinds() {
		if _, _, err := register.DecodeRMW(dsys.Envelope{Kind: kind, Payload: []byte{0xFF}}); !errors.Is(err, register.ErrCodec) {
			t.Fatalf("DecodeRMW(%s, garbage) = %v, want ErrCodec", kind, err)
		}
	}
	if err := register.RequireEmpty([]byte{1}); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("RequireEmpty on non-empty: %v", err)
	}
}

// Every registered kind must round-trip a response value the way the fuzz
// target round-trips request payloads: encode(resp) must decode back.
func TestResponseCodecsRoundTrip(t *testing.T) {
	chunk := register.Chunk{TS: register.Timestamp{Num: 3, Client: 7}}
	chunk.Block.Index = 1
	chunk.Block.Data = []byte{1, 2, 3}
	encode := func(write func(*register.WireWriter, any) error, resp any) ([]byte, error) {
		var w register.WireWriter
		err := write(&w, resp)
		return w.Finish(), err
	}

	if payload, err := encode(register.WriteBoolResp, true); err != nil {
		t.Fatal(err)
	} else if v, err := register.DecodeBoolResp(nil, payload); err != nil || v != true {
		t.Fatalf("bool resp round trip = (%v, %v)", v, err)
	}
	if _, err := encode(register.WriteBoolResp, "nope"); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("WriteBoolResp of non-bool: %v", err)
	}
	if _, err := register.DecodeBoolResp(nil, []byte{2}); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("DecodeBoolResp of bad bool byte: %v", err)
	}

	payload, err := encode(register.WriteChunkResp, &chunk)
	if err != nil {
		t.Fatal(err)
	}
	var slot register.Chunk
	got, err := register.DecodeChunkResp(&slot, payload)
	if err != nil {
		t.Fatal(err)
	}
	if gc, ok := got.(*register.Chunk); !ok || gc != &slot || gc.TS != chunk.TS || gc.Block.Index != chunk.Block.Index {
		t.Fatalf("chunk resp round trip = %+v, want %+v in the slot it was given", got, chunk)
	}
	if _, err := encode(register.WriteChunkResp, chunk); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("WriteChunkResp of a Chunk, not a *Chunk: %v", err)
	}
	if _, err := register.DecodeChunkResp(&slot, payload[:len(payload)-1]); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("DecodeChunkResp of truncated payload: %v", err)
	}
}

// WireReader rejects structurally absurd inputs before allocating for them.
func TestWireReaderBounds(t *testing.T) {
	var w register.WireWriter
	w.Bytes([]byte("abc"))
	r := register.NewWireReader(w.Finish())
	if got := r.Bytes(); string(got) != "abc" || r.Finish() != nil {
		t.Fatalf("bytes round trip = %q, %v", got, r.Finish())
	}

	// Declared byte length beyond the buffer.
	r = register.NewWireReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversized declared byte length accepted")
	}
	// Declared chunk count beyond what the buffer could hold.
	r = register.NewWireReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if r.Chunks() != nil || r.Err() == nil {
		t.Fatal("oversized declared chunk count accepted")
	}
	// Trailing bytes are an error even when every read succeeded.
	r = register.NewWireReader([]byte{0, 1})
	if r.Bool(); r.Finish() == nil {
		t.Fatal("trailing payload byte accepted")
	}
}
