package register_test

import (
	"errors"
	"sync"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
)

// fakeState is a State type no provider registers, for negative paths and
// registry-conflict checks.
type fakeState struct{ b byte }

func (fakeState) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

// otherFakeState shares fakeState's codec kind in the duplicate-kind check.
type otherFakeState struct{}

func (otherFakeState) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

func fakeCodec(kind string) register.StateCodec {
	return register.StateCodec{
		Kind:   kind,
		Encode: func(s dsys.State) ([]byte, error) { return []byte{s.(fakeState).b}, nil },
		Decode: func(p []byte) (dsys.State, error) { return fakeState{b: p[0]}, nil },
	}
}

// TestStateCodecKinds: every provider registered its state codec at init.
func TestStateCodecKinds(t *testing.T) {
	kinds := register.StateCodecKinds()
	got := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		got[k] = true
	}
	for _, want := range []string{"abd.state", "adaptive.state", "ec.state", "safe.state"} {
		if !got[want] {
			t.Errorf("StateCodecKinds() = %v, missing %q", kinds, want)
		}
	}
}

// TestStateCodecErrors covers the registry's refusal paths: unknown state
// types, unknown kinds, and payloads the provider codec rejects — all typed
// ErrCodec so callers can distinguish codec trouble from I/O trouble.
func TestStateCodecErrors(t *testing.T) {
	if _, _, err := register.EncodeState(otherFakeState{}); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("EncodeState(unregistered type) = %v, want ErrCodec", err)
	}
	if _, err := register.DecodeState("no.such.state", nil); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("DecodeState(unknown kind) = %v, want ErrCodec", err)
	}
	if _, err := register.DecodeState("abd.state", []byte{0xff}); !errors.Is(err, register.ErrCodec) {
		t.Fatalf("DecodeState(garbage payload) = %v, want ErrCodec", err)
	}
}

var registerFakeState sync.Once

// TestStateCodecRegistryRoundTripAndConflicts registers a test-only codec,
// round-trips through it, and checks the duplicate and incompleteness panics
// that keep the global registry unambiguous. The registry is per process, so
// under -count the codec is registered by the first run only.
func TestStateCodecRegistryRoundTripAndConflicts(t *testing.T) {
	registerFakeState.Do(func() { register.RegisterStateCodec(fakeCodec("test.fake-state"), fakeState{}) })
	kind, payload, err := register.EncodeState(fakeState{b: 7})
	if err != nil || kind != "test.fake-state" {
		t.Fatalf("EncodeState = %q, %v", kind, err)
	}
	dec, err := register.DecodeState(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.(fakeState).b; got != 7 {
		t.Fatalf("round-trip = %d, want 7", got)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate kind", func() {
		register.RegisterStateCodec(fakeCodec("test.fake-state"), otherFakeState{})
	})
	mustPanic("duplicate type", func() {
		register.RegisterStateCodec(fakeCodec("test.fake-state-2"), fakeState{})
	})
	mustPanic("incomplete codec", func() {
		register.RegisterStateCodec(register.StateCodec{Kind: "test.incomplete"}, otherFakeState{})
	})
}
