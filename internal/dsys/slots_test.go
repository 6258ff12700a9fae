package dsys_test

import (
	"bytes"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
)

// regionSpan is the size of one region in these tests: an abd register at
// f = 1, k = 1 has 2f+k = 3 base objects.
const regionSpan = 3

// abdStates returns n abd base-object states, object i holding a replica of
// its own: timestamp ⟨10+i, 1⟩, every byte i.
func abdStates(t *testing.T, n int) []dsys.State {
	t.Helper()
	cfg := register.Config{F: 1, K: 1, DataLen: 8}
	reg, err := safereg.NewABD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	update, _ := register.CodecByKind("abd.update")
	var states []dsys.State
	for len(states) < n {
		more, err := reg.InitialStates(value.Zero(cfg.DataLen))
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, more...)
	}
	for i, s := range states[:n] {
		var w register.WireWriter
		w.Chunk(register.Chunk{
			TS:    register.Timestamp{Num: 10 + i, Client: 1},
			Block: erasure.Block{Index: 1, Data: bytes.Repeat([]byte{byte(i)}, cfg.DataLen)},
		})
		rmw, err := update.Decode(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if stored, _ := rmw.Apply(s).(bool); !stored {
			t.Fatalf("object %d did not take its replica", i)
		}
	}
	return states[:n]
}

// readAll runs one abd read round over every object of h's scope at quorum,
// each read a fresh RMW, and returns the answers as they came back.
func readAll(t *testing.T, h *dsys.ClientHandle, quorum int) []any {
	t.Helper()
	read, _ := register.CodecByKind("abd.read")
	resp, err := h.InvokeAll(func(int) dsys.RMW {
		rmw, err := read.Decode(nil)
		if err != nil {
			t.Error(err)
		}
		return rmw
	}, quorum)
	if err != nil {
		t.Errorf("read round at quorum %d: %v", quorum, err)
	}
	return resp
}

// checkAnswers fails the test unless every slot of resp but the one at down
// holds the replica of the object at base plus its index, and the one at down
// (if any, -1 for none) holds nothing.
func checkAnswers(t *testing.T, resp []any, base, down int) {
	t.Helper()
	if len(resp) != regionSpan {
		t.Errorf("the round returned %d slots for a scope of %d objects", len(resp), regionSpan)
		return
	}
	for i, a := range resp {
		if i == down {
			if a != nil {
				t.Errorf("slot %d holds %v, but its object was down for the round", i, a)
			}
			continue
		}
		c, ok := a.(*register.Chunk)
		if !ok || c.TS.Num != 10+base+i || c.Block.Data[0] != byte(base+i) {
			t.Errorf("slot %d holds %v, not object %d's replica", i, a, base+i)
		}
	}
}

// TestAnswerSlotsBelongToTheRound: in every engine a round's answers come
// back in slots the handle keeps, indexed by scope-local object, and the next
// round reuses them, so a slot whose object answered the first round and was
// down for the second must be empty after the second — the slot holds this
// round's answer or none. The remote engine runs a scope at base 3 over a
// loopback whose own rounds span the whole backing cluster of two regions.
// Sub re-scopes one handle the parent keeps. A live handle, and the remote
// cluster's, goes back to RunScoped's pool when the run returns, and there
// neither it nor its kept Sub handle references anything: no cluster, context
// or scope, and no answer or the RMW it rides in.
func TestAnswerSlotsBelongToTheRound(t *testing.T) {
	const down = 1
	for _, tc := range []struct {
		name   string
		pooled bool
		// run runs fn as a client over a region of regionSpan objects, at
		// base, and crash crashes the object at its index in that region.
		setUp func(t *testing.T) (run func(fn func(h *dsys.ClientHandle) error) error, base int, crash func(i int) error)
	}{
		{"live", true, func(t *testing.T) (func(func(*dsys.ClientHandle) error) error, int, func(int) error) {
			c := dsys.NewCluster(abdStates(t, regionSpan), dsys.WithLiveMode())
			t.Cleanup(c.Close)
			return func(fn func(*dsys.ClientHandle) error) error { return c.RunScoped(1, 0, regionSpan, fn) }, 0, c.CrashObject
		}},
		{"controlled", false, func(t *testing.T) (func(func(*dsys.ClientHandle) error) error, int, func(int) error) {
			c := dsys.NewCluster(abdStates(t, regionSpan))
			t.Cleanup(c.Close)
			c.Start()
			return func(fn func(*dsys.ClientHandle) error) error { return c.RunScoped(1, 0, regionSpan, fn) }, 0, c.CrashObject
		}},
		{"remote", true, func(t *testing.T) (func(func(*dsys.ClientHandle) error) error, int, func(int) error) {
			backing := dsys.NewCluster(abdStates(t, 2*regionSpan), dsys.WithLiveMode())
			t.Cleanup(backing.Close)
			remote := dsys.NewRemoteCluster(2*regionSpan, transport.NewLoopback(backing))
			t.Cleanup(remote.Close)
			return func(fn func(*dsys.ClientHandle) error) error {
					return remote.RunScoped(1, regionSpan, regionSpan, fn)
				}, regionSpan, func(i int) error {
					return backing.CrashObject(regionSpan + i)
				}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, base, crash := tc.setUp(t)
			var handle *dsys.ClientHandle
			err := run(func(h *dsys.ClientHandle) error {
				handle = h
				first := readAll(t, h, regionSpan)
				checkAnswers(t, first, base, -1)
				if err := crash(down); err != nil {
					return err
				}
				second := readAll(t, h, regionSpan-1)
				checkAnswers(t, second, base, down)
				if len(first) > 0 && len(second) > 0 && &first[0] != &second[0] {
					t.Error("the second round's answers are not in the slots of the first")
				}
				sub, err := h.Sub(0, regionSpan)
				if err != nil {
					return err
				}
				checkAnswers(t, readAll(t, sub, regionSpan-1), base, down)
				if again, err := h.Sub(0, regionSpan); err != nil || again != sub {
					t.Errorf("a second Sub made a new handle (%v), not the kept one re-scoped", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !tc.pooled {
				return
			}
			if fieldsSet, answers := dsys.Residue(handle); fieldsSet || answers > 0 {
				t.Errorf("a handle back in the pool still references something: fields set %v, %d answers", fieldsSet, answers)
			}
		})
	}
}
