package safereg_test

import (
	"bytes"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// TestStateCodecRoundTrip drives the snapshot path end to end, for each
// family: every base object's live state is encoded, decoded, re-encoded
// (byte-identical, so the codec is lossless), and installed into a fresh
// cluster that must then serve the written value.
func TestStateCodecRoundTrip(t *testing.T) {
	const dataLen = 16
	t.Run("safe", func(t *testing.T) {
		stateCodecRoundTrip(t, newReg(t, 1, 2, dataLen), "safe.state", "safereg")
	})
	t.Run("abd", func(t *testing.T) {
		stateCodecRoundTrip(t, newABD(t, 1, dataLen), "abd.state", "abd")
	})
}

func stateCodecRoundTrip(t *testing.T, reg register.Register, stateKind, tag string) {
	dataLen := reg.Config().DataLen
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	c := dsys.NewCluster(states, dsys.WithLiveMode())
	defer c.Close()
	want := value.FromString(tag+"-codec-rt", dataLen)
	for i, v := range []value.Value{value.FromString(tag+"-first", dataLen), want} {
		if err := c.RunScoped(i+1, 0, c.N(), func(h *dsys.ClientHandle) error {
			return reg.Write(h, v)
		}); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	c2 := dsys.NewCluster(fresh, dsys.WithLiveMode())
	defer c2.Close()
	for id := 0; id < c.N(); id++ {
		var kind string
		var payload []byte
		var encErr error
		if err := c.ReadObjectState(id, func(s dsys.State) {
			kind, payload, encErr = register.EncodeState(s)
		}); err != nil {
			t.Fatal(err)
		}
		if encErr != nil {
			t.Fatalf("object %d: EncodeState: %v", id, encErr)
		}
		if kind != stateKind {
			t.Fatalf("object %d: kind = %q", id, kind)
		}
		dec, err := register.DecodeState(kind, payload)
		if err != nil {
			t.Fatalf("object %d: DecodeState: %v", id, err)
		}
		kind2, payload2, err := register.EncodeState(dec)
		if err != nil || kind2 != kind || !bytes.Equal(payload, payload2) {
			t.Fatalf("object %d: re-encode diverged (kind %q, err %v)", id, kind2, err)
		}
		if err := c2.RestoreObjectState(id, dec); err != nil {
			t.Fatal(err)
		}
	}
	var got value.Value
	if err := c2.RunScoped(9, 0, c2.N(), func(h *dsys.ClientHandle) error {
		v, err := reg.Read(h)
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("read from restored states = %q, want %q", got.Bytes(), want.Bytes())
	}
}
