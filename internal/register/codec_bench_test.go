package register_test

import (
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
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
// The row after it, .../byref, is what a sender pays for that update: the
// envelope written in place by a writer that holds blocks by reference, into a
// buffer it reuses — headers only, so neither B/op nor the time depends on the
// value's size.
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
	payload := largeUpdatePayload(64<<10, 4)
	c, _ := register.CodecByKind("adaptive.update")
	update, err := c.Decode(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("adaptive.update/64KiB/k=4/byref", func(b *testing.B) {
		var w register.WireWriter
		var buf []byte
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, total, err := c.RequestSize(&w, update)
			if err != nil {
				b.Fatal(err)
			}
			w.Reset(buf[:0], true)
			if err := register.WriteEnvelope(&w, dsys.Envelope{Op: op, Object: 5}, c, update, total); err != nil {
				b.Fatal(err)
			}
			buf = w.Finish()
		}
	})
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
