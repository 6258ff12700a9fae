package wal_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

var blockType = reflect.TypeOf(erasure.Block{})

// heldBlocks walks a base object's state, unexported fields included, and
// appends to out every erasure.Block it holds, in the order the walk meets
// them. The blocks are the state's own: their bytes are not copied.
func heldBlocks(v reflect.Value, out []erasure.Block) []erasure.Block {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			out = heldBlocks(v.Elem(), out)
		}
	case reflect.Struct:
		if v.Type() == blockType {
			return append(out, erasure.Block{Index: int(v.FieldByName("Index").Int()), Data: v.FieldByName("Data").Bytes()})
		}
		for i := 0; i < v.NumField(); i++ {
			out = heldBlocks(v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = heldBlocks(v.Index(i), out)
		}
	}
	return out
}

// objectBlocks is heldBlocks of every object of c, by object.
func objectBlocks(t *testing.T, c *dsys.Cluster) [][]erasure.Block {
	t.Helper()
	out := make([][]erasure.Block, c.N())
	for obj := range out {
		if err := c.ReadObjectState(obj, func(s dsys.State) { out[obj] = heldBlocks(reflect.ValueOf(s), nil) }); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReplayedStateOwnsItsBlocks: replay reads every record into one buffer,
// over the last, and decodes each as a view of it, so an object must copy a
// piece on the line that stores it. A journaled cluster of every provider
// stores pieces at each such line — sequential writes of each register (the
// adaptive update into Vp, abd's and safereg's updates, ecreg's store), then an
// adaptive GC whose write's update never reached object 0, which stores its
// piece in Vf (lines 43-44). After ReplayObject of every object into the live
// cluster, and after Replay into a fresh one, every block every object holds
// must be exactly sized memory of its own and equal the live object's block.
func TestReplayedStateOwnsItsBlocks(t *testing.T) {
	const dataLen = 32
	cfg := func(k int) register.Config { return register.Config{F: 1, K: k, DataLen: dataLen} }
	adaptiveReg, err := adaptive.New(cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	abdReg, err := safereg.NewABD(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	ecReg, err := ecreg.New(cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	safeReg, err := safereg.New(cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	// The adaptive register comes first: object 0 is its.
	regs := []register.Register{adaptiveReg, abdReg, ecReg, safeReg}
	initial := func() []dsys.State {
		var states []dsys.State
		for _, reg := range regs {
			s, err := reg.InitialStates(value.Zero(dataLen))
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, s...)
		}
		return states
	}

	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := dsys.NewCluster(initial(), dsys.WithLiveMode())
	defer live.Close()
	j.Attach(live)
	first := 0
	for _, reg := range regs {
		n := reg.Config().N()
		for seq := 1; seq <= 3; seq++ {
			if err := live.RunScoped(1, first, n, func(h *dsys.ClientHandle) error {
				return reg.Write(h, value.Sequenced(1, seq, dataLen))
			}); err != nil {
				t.Fatalf("%s write %d: %v", reg.Name(), seq, err)
			}
		}
		first += n
	}
	var w register.WireWriter
	w.TS(register.Timestamp{Num: 10, Client: 2})
	w.Chunk(adaptiveChunk(10, 2, 1))
	gc, _, err := register.DecodeRMW(dsys.Envelope{Kind: "adaptive.gc", Payload: w.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.ApplyOne(0, gc); err != nil {
		t.Fatal(err)
	}
	want := objectBlocks(t, live)
	if got := want[0]; len(got) != 1 || got[0].Data[0] != adaptiveChunk(10, 2, 1).Block.Data[0] {
		t.Fatalf("object 0 holds %d blocks, want the GC's piece alone", len(got))
	}

	owned := func(how string, c *dsys.Cluster) {
		t.Helper()
		for obj, blocks := range objectBlocks(t, c) {
			if len(blocks) != len(want[obj]) || len(blocks) == 0 {
				t.Fatalf("%s: object %d holds %d blocks, the live object %d", how, obj, len(blocks), len(want[obj]))
			}
			for i, b := range blocks {
				where := fmt.Sprintf("%s: object %d, block %d", how, obj, b.Index)
				if cap(b.Data) != len(b.Data) {
					t.Errorf("%s holds %d bytes in memory of capacity %d", where, len(b.Data), cap(b.Data))
				}
				if b.Index != want[obj][i].Index || !bytes.Equal(b.Data, want[obj][i].Data) {
					t.Errorf("%s differs from the live object's block %d", where, want[obj][i].Index)
				}
			}
		}
	}

	fresh := initial()
	for obj := range fresh {
		if err := live.CrashObject(obj); err != nil {
			t.Fatal(err)
		}
		if stats, err := j.ReplayObject(live, obj, fresh[obj]); err != nil || stats.Applied == 0 {
			t.Fatalf("ReplayObject(%d): %+v, %v", obj, stats, err)
		}
		if err := live.RestartObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	owned("ReplayObject", live)
	live.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := dsys.NewCluster(initial(), dsys.WithLiveMode())
	defer replayed.Close()
	reopened, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if stats, err := reopened.Replay(replayed); err != nil || stats.Applied == 0 {
		t.Fatalf("Replay: %+v, %v", stats, err)
	}
	owned("Replay", replayed)
}
