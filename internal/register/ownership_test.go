package register_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/register/abd"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// ownChunk builds a chunk of write (client, num) with a recognizable block.
func ownChunk(num, client, index int) register.Chunk {
	return register.Chunk{
		TS:     register.Timestamp{Num: num, Client: client},
		Block:  erasure.Block{Index: index, Data: bytes.Repeat([]byte{byte(16*num + client)}, 48)},
		Source: oracle.SourceTag{Write: oracle.WriteID{Client: client, Seq: num}, Index: index},
	}
}

func wire(build func(w *register.WireWriter)) []byte {
	var w register.WireWriter
	build(&w)
	return w.Finish()
}

// TestAppliedStateOwnsItsBytes is the rule that lets decode alias its frame:
// whatever a base object retains is a copy of its own. For every provider and
// every mutating RMW kind, an RMW is decoded from an envelope the way a server
// or a WAL replay decodes it, applied, and then the envelope's bytes are
// overwritten; the object's state (through its StateCodec) must not change.
// The adaptive sequence fills Vp and then takes the Vf fallback, which stores
// the update's `full` — the parameter that does alias the frame.
//
// Each object is journaled, and the journal frames every record in one buffer
// it reuses: after each step that buffer is overwritten too (by a move record
// longer than any step's), and at the end the log must replay to the state the
// object is in — neither the object nor the log kept a view of the buffer.
func TestAppliedStateOwnsItsBytes(t *testing.T) {
	cfg := register.Config{F: 1, K: 2, DataLen: 96}
	type step struct {
		kind    string
		payload []byte
	}
	update := func(num, client int) []byte {
		return wire(func(w *register.WireWriter) {
			w.Int(2)
			w.TS(register.Timestamp{Num: num, Client: client})
			w.TS(register.ZeroTS)
			w.Chunk(ownChunk(num, client, 1))
			w.Chunks([]register.Chunk{ownChunk(num, client, 1), ownChunk(num, client, 2)})
		})
	}
	chunk := func(num, client int) []byte {
		return wire(func(w *register.WireWriter) { w.Chunk(ownChunk(num, client, 1)) })
	}
	providers := []struct {
		name  string
		build func(register.Config) (register.Register, error)
		k     int
		steps []step
	}{
		{"abd", func(c register.Config) (register.Register, error) { return abd.New(c) }, 1,
			[]step{{"abd.update", chunk(1, 1)}, {"abd.update", chunk(2, 1)}}},
		{"safereg", func(c register.Config) (register.Register, error) { return safereg.New(c) }, 2,
			[]step{{"safe.update", chunk(1, 1)}, {"safe.update", chunk(2, 1)}}},
		{"ecreg", func(c register.Config) (register.Register, error) { return ecreg.New(c) }, 2,
			[]step{
				{"ec.store", chunk(2, 1)},
				{"ec.seedstore", chunk(3, 2)},
				{"ec.commit", wire(func(w *register.WireWriter) { w.TS(register.Timestamp{Num: 2, Client: 1}) })},
			}},
		{"adaptive", func(c register.Config) (register.Register, error) { return adaptive.New(c) }, 2,
			[]step{
				{"adaptive.update", update(2, 1)},     // Vp has room: retains the piece
				{"adaptive.update", update(3, 2)},     // Vp full: retains a copy of full in Vf
				{"adaptive.seedupdate", update(4, 3)}, // replaces Vf with a newer full
				{"adaptive.gc", wire(func(w *register.WireWriter) { // shrinks Vf to the GC's own piece
					w.TS(register.Timestamp{Num: 4, Client: 3})
					w.Chunk(ownChunk(4, 3, 1))
				})},
			}},
	}
	covered := map[string]bool{}
	for _, p := range providers {
		c := cfg
		c.K = p.k
		reg, err := p.build(c)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		states, err := reg.InitialStates(value.Zero(c.DataLen))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		cluster := dsys.NewCluster(states[:1], dsys.WithLiveMode())
		dir := t.TempDir()
		journal, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		journal.Attach(cluster)
		encoded := func(c *dsys.Cluster) (out []byte) {
			t.Helper()
			var err error
			if rerr := c.ReadObjectState(0, func(s dsys.State) { _, out, err = register.EncodeState(s) }); rerr != nil || err != nil {
				t.Fatalf("%s: %v %v", p.name, rerr, err)
			}
			return out
		}
		last := encoded(cluster)
		for i, st := range p.steps {
			covered[st.kind] = true
			frame, err := dsys.Envelope{Op: dsys.OpID{Client: 1, Seq: i}, Kind: st.kind, Payload: st.payload}.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			env, err := dsys.UnmarshalEnvelope(frame)
			if err != nil {
				t.Fatal(err)
			}
			rmw, _, err := register.DecodeRMW(env)
			if err != nil {
				t.Fatalf("%s step %d: %v", st.kind, i, err)
			}
			if _, err := cluster.ApplyOne(0, rmw); err != nil {
				t.Fatalf("%s step %d: %v", st.kind, i, err)
			}
			applied := encoded(cluster)
			if bytes.Equal(applied, last) {
				t.Fatalf("%s step %d did not change the state: the step checks nothing", st.kind, i)
			}
			for j := range frame {
				frame[j] = 0xEE
			}
			journal.RecordMove(1, bytes.Repeat([]byte{0xEE}, 1<<10))
			after := encoded(cluster)
			if !bytes.Equal(after, applied) {
				t.Fatalf("%s step %d: overwriting the request frame and the journal's changed the object's state", st.kind, i)
			}
			last = after
		}
		cluster.Close()
		if err := journal.Close(); err != nil {
			t.Fatal(err)
		}
		fresh, err := reg.InitialStates(value.Zero(c.DataLen))
		if err != nil {
			t.Fatal(err)
		}
		replayed := dsys.NewCluster(fresh[:1], dsys.WithLiveMode())
		reopened, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if stats, err := reopened.Replay(replayed); err != nil || stats.Applied != len(p.steps) {
			t.Fatalf("%s: replaying the steps' log: %+v, %v", p.name, stats, err)
		}
		if !bytes.Equal(encoded(replayed), last) {
			t.Fatalf("%s: the log replays to a different state than the steps left", p.name)
		}
		replayed.Close()
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range register.CodecKinds() {
		if !register.KindReadOnly(kind) && !covered[kind] {
			t.Errorf("mutating kind %q has no ownership step — add one", kind)
		}
	}
}

// noRounds is a remote cluster's invoker for a test that runs no round.
type noRounds struct{}

func (noRounds) InvokeRound(context.Context, int, []int, func(int) dsys.RMW, int) (map[int]any, error) {
	return nil, dsys.ErrRemote
}

// TestEncodeWriteOwnsBlocksWhereObjectsRetainThem: the blocks a write hands an
// in-process handle's objects are each exactly sized memory apart from the
// value, as an object keeps them; behind a remote handle nothing keeps them,
// so the data blocks are the value's own bytes and a write allocates its parity
// blocks and a few headers — not a second copy of the value.
func TestEncodeWriteOwnsBlocksWhereObjectsRetainThem(t *testing.T) {
	const f, k, dataLen = 2, 4, 64 << 10
	cfg, err := register.Config{F: f, K: k, DataLen: dataLen}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := adaptive.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	local := dsys.NewCluster(states, dsys.WithLiveMode())
	defer local.Close()
	remote := dsys.NewRemoteCluster(cfg.N(), noRounds{})
	defer remote.Close()

	encode := func(c *dsys.Cluster, v value.Value) (chunks []register.Chunk) {
		err := c.RunScoped(1, 0, cfg.N(), func(h *dsys.ClientHandle) error {
			var err error
			chunks, _, err = register.EncodeWrite(cfg, oracle.WriteID{Client: 1, Seq: 1}, v, h.InProcess())
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return chunks
	}

	scratch := value.Sequenced(1, 1, dataLen).Bytes()
	owned := encode(local, value.Adopt(scratch))
	before := register.CloneChunks(owned)
	clear(scratch)
	for i, c := range owned {
		if cap(c.Block.Data) != len(c.Block.Data) {
			t.Errorf("in process, block %d: cap %d != len %d", c.Block.Index, cap(c.Block.Data), len(c.Block.Data))
		}
		if !bytes.Equal(c.Block.Data, before[i].Block.Data) {
			t.Errorf("in process, block %d shares memory with the value", c.Block.Index)
		}
	}

	v := value.Sequenced(1, 2, dataLen)
	views := encode(remote, v)
	for i := 0; i < k; i++ {
		if &views[i].Block.Data[0] != &v.View()[i*dataLen/k] {
			t.Errorf("remote, block %d is not a view of the value", i+1)
		}
	}
	var start, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&start)
	for i := 0; i < runs; i++ {
		encode(remote, v)
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - start.TotalAlloc) / runs
	if limit := uint64((cfg.N()-k)*dataLen/k + 4<<10); perWrite >= limit {
		t.Errorf("a remote write's encode allocates %d bytes, want under (n-k)·D/k + 4 KiB = %d", perWrite, limit)
	}
}
