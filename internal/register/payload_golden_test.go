package register_test

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"

	_ "spacebounds/internal/register/safereg"
)

// payloadJournal keeps, per RMW kind, the wire payload of the last RMW of
// that kind applied to base object 0.
type payloadJournal struct {
	mu       sync.Mutex
	payloads map[string]string
	err      error
}

func (j *payloadJournal) RecordApply(object int, rmw dsys.RMW) {
	if object != 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	kind, ok := register.KindOf(rmw)
	if !ok {
		j.err = fmt.Errorf("object 0 applied a %T, which has no codec", rmw)
		return
	}
	c, _ := register.CodecByKind(kind)
	payload, err := c.Encode(rmw)
	if err != nil {
		j.err = err
		return
	}
	j.payloads[kind] = hex.EncodeToString(payload)
}

func (j *payloadJournal) RecordApplyTraced(object int, rmw dsys.RMW, _ trace.Context) {
	j.RecordApply(object, rmw)
}
func (*payloadJournal) Refuses(dsys.RMW) error                 { return nil }
func (*payloadJournal) DurableBlocks() []storagecost.BlockInfo { return nil }

// TestProviderPayloadGoldens pins the bytes the replication (abd) and safe
// (safereg) registers put on the wire and into a snapshot: one write of a
// fixed value by client 1 at f = 1, and for base object 0 the kinds of the
// RMWs it applied, the update's payload and the resulting state's snapshot
// entry, in hex. A change to either register that moves a wire or snapshot
// byte fails here; nodes and journals written before it would no longer
// decode.
func TestProviderPayloadGoldens(t *testing.T) {
	const dataLen = 8
	// A chunk on the wire: timestamp (num 1, client 1), block index 1, the
	// block's length and bytes, and its source tag (write 1 of client 1,
	// index 1), every integer 8 bytes big-endian and the length 4. abd's
	// block is the whole value; safereg's (k = 2) its first half. A safe.state
	// entry leads with the object's index (0).
	const (
		abdChunk  = "0000000000000001" + "0000000000000001" + "0000000000000001" + "00000008" + "676f6c64656e0000" + "0000000000000001" + "0000000000000001" + "0000000000000001"
		safeChunk = "0000000000000001" + "0000000000000001" + "0000000000000001" + "00000004" + "676f6c64" + "0000000000000001" + "0000000000000001" + "0000000000000001"
	)
	for _, tc := range []struct {
		provider string
		k        int
		payloads map[string]string
		state    string
		snapshot string
	}{
		{
			provider: "abd",
			k:        1,
			payloads: map[string]string{"abd.read": "", "abd.update": abdChunk},
			state:    "abd.state",
			snapshot: abdChunk,
		},
		{
			provider: "safereg",
			k:        2,
			payloads: map[string]string{"safe.read": "", "safe.update": safeChunk},
			state:    "safe.state",
			snapshot: "0000000000000000" + safeChunk,
		},
	} {
		reg, err := register.NewByName(tc.provider, register.Config{F: 1, K: tc.k, DataLen: dataLen})
		if err != nil {
			t.Fatal(err)
		}
		states, err := reg.InitialStates(value.Zero(dataLen))
		if err != nil {
			t.Fatal(err)
		}
		c := dsys.NewCluster(states, dsys.WithLiveMode())
		j := &payloadJournal{payloads: map[string]string{}}
		c.SetJournal(j)
		werr := c.RunScoped(1, 0, c.N(), func(h *dsys.ClientHandle) error {
			return reg.Write(h, value.FromString("golden", dataLen))
		})
		var kind string
		var snapshot []byte
		var serr error
		rerr := c.ReadObjectState(0, func(s dsys.State) { kind, snapshot, serr = register.EncodeState(s) })
		c.Close()
		for _, err := range []error{werr, j.err, rerr, serr} {
			if err != nil {
				t.Fatalf("%s: %v", tc.provider, err)
			}
		}
		if len(j.payloads) != len(tc.payloads) {
			t.Errorf("%s: object 0 applied kinds %v, want %v", tc.provider, j.payloads, tc.payloads)
		}
		for k, want := range tc.payloads {
			if got, ok := j.payloads[k]; !ok || got != want {
				t.Errorf("%s: %s payload = %q (applied: %v), want %q", tc.provider, k, got, ok, want)
			}
		}
		if got := hex.EncodeToString(snapshot); kind != tc.state || got != tc.snapshot {
			t.Errorf("%s: snapshot entry %s %q, want %s %q", tc.provider, kind, got, tc.state, tc.snapshot)
		}
	}
}
