package safereg_test

import (
	"errors"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
)

// TestHeldWriteChargesItsClient holds one write in its first round: two of
// the n objects never apply an RMW, so the round's quorum never forms. While
// it is held the writer is charged what it keeps of its value: at k = 1 every
// piece is the whole value, so one replica, D bits; otherwise all n pieces,
// n·D/k.
func TestHeldWriteChargesItsClient(t *testing.T) {
	const dataLen = 16 // D = 128 bits
	for _, tc := range []struct {
		name  string
		build func() (register.Register, error)
		want  int
	}{
		{"abd f=1", func() (register.Register, error) {
			return safereg.NewABD(register.Config{F: 1, DataLen: dataLen})
		}, 128},
		{"safereg f=1 k=2", func() (register.Register, error) {
			return safereg.New(register.Config{F: 1, K: 2, DataLen: dataLen})
		}, 4 * 64},
	} {
		reg, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		states, err := reg.InitialStates(value.Zero(dataLen))
		if err != nil {
			t.Fatal(err)
		}
		hold := &dsys.DelayObjectsPolicy{Inner: dsys.FairPolicy{}, Delayed: map[int]bool{0: true, 1: true}}
		c := dsys.NewCluster(states, dsys.WithPolicy(hold))
		task := c.Spawn(1, func(h *dsys.ClientHandle) error {
			return reg.Write(h, value.FromString("held", dataLen))
		})
		c.Start()
		reason := c.WaitIdle()
		got := c.SampleStorage().ClientBits
		c.Close()
		if err := task.Wait(); !errors.Is(err, dsys.ErrHalted) {
			t.Errorf("%s: held write returned %v, want %v", tc.name, err, dsys.ErrHalted)
		}
		if reason != dsys.IdleStuck {
			t.Fatalf("%s: run ended %s, want the write held", tc.name, reason)
		}
		if got != tc.want {
			t.Errorf("%s: held write charges its client %d bits, want %d", tc.name, got, tc.want)
		}
	}
}
