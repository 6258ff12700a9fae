package register_test

import (
	"context"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
)

// BenchmarkEnvelopeCodec measures the full wire path of one RMW per kind —
// codec encode, envelope marshal, unmarshal, codec decode — which is the
// per-request serialization cost the loopback transport adds to the local
// engine and the TCP transport pays per frame.
//
// The last row is the large-value shape of the benchmark's tcp-large workload:
// an adaptive update of a 64 KiB value at k = 4, one 16 KiB piece plus the
// four pieces of the full replica. Its B/op and allocs/op are where a codec
// that grows its payload by appending, or copies what it may alias, shows.
//
// The row after it, .../split, is what a sender pays for that update: the
// encode alone, in two runs, on a live update of a write — whose full replica
// is encoded once for its n updates, so B/op is the update's own run, about
// one piece, not a piece plus the value.
func BenchmarkEnvelopeCodec(b *testing.B) {
	op := dsys.OpID{Client: 11, Seq: 42, Kind: dsys.OpWrite}
	type benchCase struct {
		name, kind string
		payload    []byte
	}
	var cases []benchCase
	for _, kind := range register.CodecKinds() {
		cases = append(cases, benchCase{kind, kind, seedPayloads()[kind]})
	}
	cases = append(cases, benchCase{"adaptive.update/64KiB/k=4", "adaptive.update", largeUpdatePayload(64<<10, 4)})
	for _, bc := range cases {
		c, ok := register.CodecByKind(bc.kind)
		if !ok {
			b.Fatalf("kind %q not registered", bc.kind)
		}
		rmw, err := c.Decode(bc.payload)
		if err != nil {
			b.Fatalf("%s: seed does not decode: %v", bc.name, err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := register.EncodeEnvelope(op, 5, rmw)
				if err != nil {
					b.Fatal(err)
				}
				wire, err := env.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				got, err := dsys.UnmarshalEnvelope(wire)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := register.DecodeRMW(got); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	update := liveUpdate(b, 64<<10, 4)
	b.Run("adaptive.update/64KiB/k=4/split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env, err := register.EncodeEnvelopeShared(op, 5, update)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(env.Payload) + len(env.Shared)))
		}
	})
}

// updateCapturer keeps the largest-payload RMW that passes through it.
type updateCapturer struct {
	inner  dsys.RoundInvoker
	update dsys.RMW
	size   int
}

func (c *updateCapturer) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	return c.inner.InvokeRound(ctx, client, targets, func(obj int) dsys.RMW {
		rmw := makeRMW(obj)
		if env, err := register.EncodeEnvelope(dsys.OpID{}, obj, rmw); err == nil && len(env.Payload) > c.size {
			c.update, c.size = rmw, len(env.Payload)
		}
		return rmw
	}, quorum)
}

// liveUpdate runs one adaptive write at f = 2 over the loopback and returns
// one of its update RMWs as the writer built it, sharing its full replica and
// that replica's encoding with its siblings.
func liveUpdate(b *testing.B, dataLen, k int) dsys.RMW {
	specs := []shard.Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: 2, K: k, DataLen: dataLen}}}
	backing, err := shard.New(specs)
	if err != nil {
		b.Fatal(err)
	}
	defer backing.Close()
	capt := &updateCapturer{inner: transport.NewLoopback(backing.Cluster())}
	rs, err := shard.NewRemote(specs, capt)
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	if err := rs.WriteValue(1, rs.Shards()[0], value.Sequenced(1, 1, dataLen)); err != nil {
		b.Fatal(err)
	}
	return capt.update
}

// largeUpdatePayload builds an adaptive update for a value of dataLen bytes at
// decode threshold k: one piece and the k pieces of the full replica.
func largeUpdatePayload(dataLen, k int) []byte {
	piece := func(index int) register.Chunk {
		c := mkChunk(0)
		c.Block.Index, c.Source.Index = index, index
		c.Block.Data = make([]byte, dataLen/k)
		return c
	}
	full := make([]register.Chunk, k)
	for i := range full {
		full[i] = piece(i + 1)
	}
	var w register.WireWriter
	w.Int(k)
	w.TS(register.Timestamp{Num: 8, Client: 4})
	w.TS(register.Timestamp{Num: 6, Client: 2})
	w.Chunk(piece(k + 1))
	w.Chunks(full)
	return w.Finish()
}
