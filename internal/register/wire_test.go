package register_test

import (
	"bytes"
	"testing"

	"spacebounds/internal/register"
)

// TestCodecPayloadsAreExactlySized: a payload or response that carries code
// blocks is allocated once, at its final size.
func TestCodecPayloadsAreExactlySized(t *testing.T) {
	for kind, payload := range seedPayloads() {
		c, _ := register.CodecByKind(kind)
		rmw, err := c.Decode(payload)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		enc, err := c.Encode(rmw)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(rmw.AppendBlocks(nil)) > 0 && cap(enc) != len(enc) {
			t.Errorf("%s: payload of %d bytes has capacity %d", kind, len(enc), cap(enc))
		}
	}
	chunks := []register.Chunk{ownChunk(1, 1, 1), ownChunk(2, 1, 2)}
	for kind, resp := range map[string][]byte{
		"abd.read":  wire(func(w *register.WireWriter) { w.Chunk(chunks[0]) }),
		"safe.read": wire(func(w *register.WireWriter) { w.Chunk(chunks[0]) }),
		"ec.read": wire(func(w *register.WireWriter) {
			w.TS(register.Timestamp{Num: 1, Client: 1})
			w.Chunks(chunks)
		}),
		"adaptive.read": wire(func(w *register.WireWriter) {
			w.TS(register.Timestamp{Num: 1, Client: 1})
			w.Chunks(chunks)
		}),
	} {
		v, err := register.DecodeResponse(kind, nil, resp)
		if err != nil {
			t.Fatalf("%s response: %v", kind, err)
		}
		enc, err := register.EncodeResponse(kind, v)
		if err != nil {
			t.Fatalf("%s response: %v", kind, err)
		}
		if !bytes.Equal(enc, resp) || cap(enc) != len(enc) {
			t.Errorf("%s response: %d bytes with capacity %d, equal=%v", kind, len(enc), cap(enc), bytes.Equal(enc, resp))
		}
	}
}

// TestWireReaderAliasAndCopy pins the two contracts side by side: Bytes and
// Chunk copy into exactly sized memory, the Alias reads are views.
func TestWireReaderAliasAndCopy(t *testing.T) {
	payload := wire(func(w *register.WireWriter) {
		w.Chunk(ownChunk(1, 1, 1))
		w.Chunk(ownChunk(2, 1, 2))
		w.Chunks([]register.Chunk{ownChunk(3, 1, 1)})
	})
	r := register.NewWireReader(payload)
	owned, view, views := r.Chunk(), r.ChunkAlias(), r.ChunksAlias()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if cap(owned.Block.Data) != len(owned.Block.Data) {
		t.Errorf("copied block: cap %d != len %d", cap(owned.Block.Data), len(owned.Block.Data))
	}
	for i := range payload {
		payload[i] = 0
	}
	if owned.Block.Data[0] == 0 {
		t.Error("Chunk aliased the payload")
	}
	if view.Block.Data[0] != 0 || views[0].Block.Data[0] != 0 {
		t.Error("ChunkAlias or ChunksAlias copied the payload")
	}
}
