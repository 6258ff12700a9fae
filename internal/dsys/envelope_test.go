package dsys

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Op: OpID{Client: 7, Seq: 42, Kind: OpWrite}, Object: 3, Kind: "abd.update", Payload: []byte{1, 2, 3}},
		{Op: OpID{Client: 0, Seq: 0, Kind: OpRead}, Object: 0, Kind: "", Payload: nil},
		{Op: OpID{Client: 1 << 40, Seq: 9, Kind: OpRead}, Object: 1 << 30, Kind: "x", Payload: make([]byte, 1000)},
	}
	for _, e := range cases {
		wire, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %+v: %v", e, err)
		}
		got, err := UnmarshalEnvelope(wire)
		if err != nil {
			t.Fatalf("unmarshal %+v: %v", e, err)
		}
		if got.Op != e.Op || got.Object != e.Object || got.Kind != e.Kind || !bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("round trip %+v -> %+v", e, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Op: OpID{Client: 7, Seq: 42, Kind: OpWrite}, Object: 3, Status: StatusOK, Payload: []byte{9, 8}},
		{Op: OpID{Client: 1, Seq: 2, Kind: OpRead}, Object: 11, Status: StatusObjectDown, Detail: "object 11 crashed"},
		{Status: StatusBadRequest},
	}
	for _, r := range cases {
		wire, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %+v: %v", r, err)
		}
		got, err := UnmarshalResponse(wire)
		if err != nil {
			t.Fatalf("unmarshal %+v: %v", r, err)
		}
		if got.Op != r.Op || got.Object != r.Object || got.Status != r.Status ||
			!bytes.Equal(got.Payload, r.Payload) || got.Detail != r.Detail {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

// Every strict prefix of a valid encoding must be rejected as truncated, and
// any trailing garbage must be rejected too — decoders never guess.
func TestEnvelopeTruncationAndTrailing(t *testing.T) {
	e := Envelope{Op: OpID{Client: 3, Seq: 4, Kind: OpWrite}, Object: 2, Kind: "ec.read", Payload: []byte("pp")}
	wire, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(wire); n++ {
		if _, err := UnmarshalEnvelope(wire[:n]); !errors.Is(err, ErrEnvelope) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrEnvelope", n, err)
		}
	}
	if _, err := UnmarshalEnvelope(append(append([]byte{}, wire...), 0)); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("trailing byte accepted: %v", err)
	}

	r := Response{Op: e.Op, Object: 2, Status: StatusOK, Payload: []byte("v"), Detail: "d"}
	rwire, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(rwire); n++ {
		if _, err := UnmarshalResponse(rwire[:n]); !errors.Is(err, ErrEnvelope) {
			t.Fatalf("response prefix of %d bytes: err = %v, want ErrEnvelope", n, err)
		}
	}
	if _, err := UnmarshalResponse(append(append([]byte{}, rwire...), 0)); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("response trailing byte accepted: %v", err)
	}
}

func TestEnvelopeRejectsBadVersionAndLengths(t *testing.T) {
	e := Envelope{Kind: "k"}
	wire, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, wire...)
	bad[0] = envelopeVersionV2 + 1
	if _, err := UnmarshalEnvelope(bad); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("version %d accepted: %v", bad[0], err)
	}
	// Version 2 on a version-1-sized buffer is not a bad version — it is a
	// truncation (the trace context is missing).
	bad[0] = envelopeVersionV2
	if _, err := UnmarshalEnvelope(bad); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("v2 envelope without trace bytes accepted: %v", err)
	}
	if _, err := UnmarshalResponse(bad); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("response version %d accepted: %v", bad[0], err)
	}

	// A declared payload length far beyond the buffer must be rejected before
	// any allocation of that size is attempted.
	huge := []byte{envelopeVersion}
	huge = appendOpID(huge, OpID{})
	huge = append(huge, make([]byte, 8)...)                              // object
	huge = append(huge, 0, 0)                                            // empty kind
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF)                          // 4 GiB payload...
	if _, err := UnmarshalEnvelope(huge); !errors.Is(err, ErrEnvelope) { // ...with no bytes behind it
		t.Fatalf("oversized declared payload accepted: %v", err)
	}

	// Oversized fields fail encoding rather than silently corrupting lengths.
	if _, err := (Envelope{Kind: strings.Repeat("k", 1<<16)}).MarshalBinary(); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("oversized kind encoded: %v", err)
	}

	// A response detail beyond u16 is advisory text: it truncates, not fails.
	long := Response{Status: StatusOK, Detail: strings.Repeat("d", 1<<16+5)}
	lwire, err := long.MarshalBinary()
	if err != nil {
		t.Fatalf("long detail: %v", err)
	}
	got, err := UnmarshalResponse(lwire)
	if err != nil {
		t.Fatalf("long detail round trip: %v", err)
	}
	if len(got.Detail) != 1<<16-1 {
		t.Fatalf("detail truncated to %d bytes, want %d", len(got.Detail), 1<<16-1)
	}
}

func TestStatusStringAndErr(t *testing.T) {
	wantErr := map[Status]error{
		StatusOK:            nil,
		StatusObjectDown:    ErrObjectDown,
		StatusRetired:       ErrRetiredObject,
		StatusUnknownObject: ErrUnknownObject,
		StatusNotHosted:     ErrUnknownObject,
		StatusRecovering:    ErrRecovering,
		StatusHalted:        ErrHalted,
		StatusBadRequest:    ErrRemote,
		StatusJournalFailed: ErrJournalFailed,
	}
	for s, want := range wantErr {
		err := s.Err()
		if want == nil {
			if err != nil {
				t.Fatalf("%v.Err() = %v, want nil", s, err)
			}
			continue
		}
		if !errors.Is(err, want) {
			t.Fatalf("%v.Err() = %v, want errors.Is %v", s, err, want)
		}
		if strings.HasPrefix(s.String(), "status(") {
			t.Fatalf("defined status %d has no name", s)
		}
	}
	if got := Status(99).String(); got != "status(99)" {
		t.Fatalf("unknown status string = %q", got)
	}
	if err := Status(99).Err(); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown status err = %v, want ErrRemote", err)
	}
}

// TestRegisteredKindDecodesWithoutAllocating: an envelope of a registered kind
// decodes to the registered string and allocates nothing; an unregistered kind
// still decodes, to a copy.
func TestRegisteredKindDecodesWithoutAllocating(t *testing.T) {
	const kind = "dsys-test.registered"
	RegisterKind(kind)
	RegisterKind(kind) // registration is idempotent
	wire, err := Envelope{Op: OpID{Client: 1}, Object: 2, Kind: kind, Payload: []byte{1, 2, 3}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if n := testing.AllocsPerRun(1000, func() { got, err = UnmarshalEnvelope(wire) }); n != 0 {
		t.Errorf("decoding a registered kind allocates %.0f times, want 0", n)
	}
	if err != nil || got.Kind != kind {
		t.Fatalf("decoded kind %q, err %v", got.Kind, err)
	}

	wire, err = Envelope{Kind: "dsys-test.unregistered"}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, err = UnmarshalEnvelope(wire); err != nil || got.Kind != "dsys-test.unregistered" {
		t.Fatalf("decoded kind %q, err %v", got.Kind, err)
	}
}

// TestHostileKindsDoNotGrowTheKindTable: only RegisterKind adds to the table,
// so a million envelopes naming a million kinds leave it as it was.
func TestHostileKindsDoNotGrowTheKindTable(t *testing.T) {
	RegisterKind("dsys-test.registered")
	before := len(*wireKinds.Load())
	wire, err := Envelope{Kind: "hostile-0000000"}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	digits := wire[bytes.Index(wire, []byte("0000000")):][:7]
	for i := 0; i < 1_000_000; i++ {
		for d, n := len(digits)-1, i; d >= 0; d, n = d-1, n/10 {
			digits[d] = byte('0' + n%10)
		}
		if _, err := UnmarshalEnvelope(wire); err != nil {
			t.Fatal(err)
		}
	}
	if after := len(*wireKinds.Load()); after != before {
		t.Fatalf("the kind table grew from %d to %d entries", before, after)
	}
}
