package oracle

import (
	"errors"
	"testing"

	"spacebounds/internal/erasure"
	"spacebounds/internal/value"
)

func TestEncoderGetAndGetAll(t *testing.T) {
	code := erasure.MustReedSolomon(2, 5)
	v := value.FromString("oracle test value", 64)
	w := WriteID{Client: 3, Seq: 1}
	enc := NewEncoder(code, w, v)
	if enc.Write() != w {
		t.Fatalf("Write() = %v, want %v", enc.Write(), w)
	}

	b, tag, err := enc.Get(2)
	if err != nil {
		t.Fatalf("Get(2): %v", err)
	}
	if tag.Write != w || tag.Index != 2 || b.Index != 2 {
		t.Fatalf("unexpected tag %v / block index %d", tag, b.Index)
	}

	blocks, err := enc.GetAll(nil)
	if err != nil {
		t.Fatalf("GetAll: %v", err)
	}
	if len(blocks) != code.N() {
		t.Fatalf("GetAll returned %d blocks, want %d", len(blocks), code.N())
	}
	for i, got := range blocks {
		want, tag, err := enc.Get(i + 1)
		if err != nil {
			t.Fatalf("Get(%d): %v", i+1, err)
		}
		if got.Index != i+1 || string(got.Data) != string(want.Data) || enc.Source(i+1) != tag {
			t.Fatalf("GetAll()[%d] is not get(%d), or its source is not Source(%d)", i, i+1, i+1)
		}
	}

	// Round-trip through a decoder.
	dec := NewDecoder(code, v.SizeBytes(), make([]erasure.Block, code.K()))
	for _, b := range blocks[:code.K()] {
		if err := dec.Push(b); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	got, err := dec.Done()
	if err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !got.Equal(v) {
		t.Fatal("decoded value differs from written value")
	}
}

func TestEncoderExpire(t *testing.T) {
	code := erasure.MustReedSolomon(1, 3)
	enc := NewEncoder(code, WriteID{Client: 1, Seq: 1}, value.FromString("x", 8))
	enc.Expire()
	if _, _, err := enc.Get(1); !errors.Is(err, ErrExpired) {
		t.Fatalf("Get after Expire returned %v, want ErrExpired", err)
	}
	if _, err := enc.GetAll(nil); !errors.Is(err, ErrExpired) {
		t.Fatalf("GetAll after Expire returned %v, want ErrExpired", err)
	}
}

func TestEncoderInvalidIndex(t *testing.T) {
	code := erasure.MustReedSolomon(2, 4)
	enc := NewEncoder(code, WriteID{Client: 1, Seq: 1}, value.FromString("x", 8))
	if _, _, err := enc.Get(0); err == nil {
		t.Fatal("Get(0) succeeded")
	}
}

func TestDecoderNotEnoughBlocks(t *testing.T) {
	code := erasure.MustReedSolomon(3, 5)
	v := value.FromString("needs three blocks", 32)
	enc := NewEncoder(code, WriteID{Client: 2, Seq: 7}, v)
	dec := NewDecoder(code, v.SizeBytes(), nil)
	b, _, err := enc.Get(1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := dec.Push(b); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if _, err := dec.Done(); !errors.Is(err, erasure.ErrNotEnoughBlocks) {
		t.Fatalf("Done with 1 block returned %v, want ErrNotEnoughBlocks", err)
	}
	// The oracle expired with the read; further use must fail.
	if err := dec.Push(b); !errors.Is(err, ErrExpired) {
		t.Fatalf("Push after Done returned %v, want ErrExpired", err)
	}
	if _, err := dec.Done(); !errors.Is(err, ErrExpired) {
		t.Fatalf("second Done returned %v, want ErrExpired", err)
	}
}

func TestWriteIDAndSourceTagStrings(t *testing.T) {
	if InitialWrite.String() != "w0" {
		t.Errorf("InitialWrite.String() = %q", InitialWrite.String())
	}
	w := WriteID{Client: 4, Seq: 9}
	if w.String() == "" || (SourceTag{Write: w, Index: 3}).String() == "" {
		t.Error("empty string rendering")
	}
}

// countingCode counts the calls an encoder makes into its code.
type countingCode struct {
	erasure.Code
	encodes, encodeBlocks int
}

func (c *countingCode) Encode(data []byte) ([]erasure.Block, error) {
	c.encodes++
	return c.Code.Encode(data)
}

func (c *countingCode) EncodeBlock(data []byte, index int) (erasure.Block, error) {
	c.encodeBlocks++
	return c.Code.EncodeBlock(data, index)
}

// TestEncoderEncodesOnce: a write asks for each of its n blocks, and the
// value must be encoded once for all of them, not once per block.
func TestEncoderEncodesOnce(t *testing.T) {
	code := &countingCode{Code: erasure.MustReedSolomon(4, 8)}
	v := value.FromString("encoded once, served eight times", 4096)
	enc := NewEncoder(code, WriteID{Client: 1, Seq: 1}, v)
	if code.encodes != 0 {
		t.Fatal("NewEncoder encoded before any get")
	}
	want, err := code.Code.Encode(v.View())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 1; i <= code.N(); i++ {
			b, _, err := enc.Get(i)
			if err != nil {
				t.Fatalf("Get(%d): %v", i, err)
			}
			if b.Index != i || string(b.Data) != string(want[i-1].Data) {
				t.Fatalf("Get(%d) is not E(v, %d)", i, i)
			}
		}
	}
	if code.encodes != 1 || code.encodeBlocks != 0 {
		t.Fatalf("2n gets made %d Encode and %d EncodeBlock calls, want 1 and 0", code.encodes, code.encodeBlocks)
	}
	enc.Expire()
	if enc.blocks != nil {
		t.Fatal("Expire kept the encoded blocks")
	}
}

// TestEncoderServesOnlyOneThroughN: get(i) serves E(v, 1..N) from the
// encode-once blocks and refuses every other index, for a k-of-n code and for
// replication, its k = 1 instance, whose blocks are all alike.
func TestEncoderServesOnlyOneThroughN(t *testing.T) {
	for name, code := range map[string]erasure.Code{"rs(2,4)": erasure.MustReedSolomon(2, 4), "repl(3)": erasure.MustReedSolomon(1, 3)} {
		t.Run(name, func(t *testing.T) {
			enc := NewEncoder(code, WriteID{Client: 1, Seq: 1}, value.FromString("one through n", 32))
			all, err := enc.GetAll(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= code.N(); i++ {
				b, tag, err := enc.Get(i)
				if err != nil {
					t.Fatalf("Get(%d): %v", i, err)
				}
				if b.Index != i || tag.Index != i || string(b.Data) != string(all[i-1].Data) {
					t.Fatalf("Get(%d) returned block %d tagged %d, not GetAll's block %d", i, b.Index, tag.Index, i)
				}
			}
			for _, i := range []int{0, code.N() + 1} {
				if _, _, err := enc.Get(i); !errors.Is(err, erasure.ErrBlockIndex) {
					t.Errorf("Get(%d) returned %v, want ErrBlockIndex", i, err)
				}
			}
		})
	}
}

// TestEncoderGetAllListsInTheCallersList: GetAll appends E(v, 1..N) to
// the list its caller lends and keeps neither list nor blocks. A Reed-Solomon
// code lists the blocks there itself; a code that wraps one is asked to
// Encode, so a wrapper that counts encodes sees each write's; after a Get the
// blocks it keeps are served; after Expire nothing is.
func TestEncoderGetAllListsInTheCallersList(t *testing.T) {
	rs := erasure.MustReedSolomon(2, 4)
	v := value.FromString("appended into the caller's list", 64)
	want, err := rs.Encode(v.View())
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []erasure.Block) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || string(got[i].Data) != string(want[i].Data) {
				t.Fatalf("%s: block %d is not E(v, %d)", what, i+1, i+1)
			}
		}
	}

	enc := NewEncoder(rs, WriteID{Client: 1, Seq: 1}, v)
	var lent [4]erasure.Block
	got, err := enc.GetAll(lent[:0])
	if err != nil {
		t.Fatal(err)
	}
	same("rs", got)
	if &got[0] != &lent[0] || enc.blocks != nil {
		t.Fatalf("rs: the blocks are not in the lent list (%v), or the oracle kept them (%v)", &got[0] == &lent[0], enc.blocks != nil)
	}

	counting := &countingCode{Code: rs}
	enc = NewEncoder(counting, WriteID{Client: 1, Seq: 2}, v)
	got, err = enc.GetAll(lent[:0])
	if err != nil {
		t.Fatal(err)
	}
	same("wrapped", got)
	if counting.encodes != 1 || &got[0] != &lent[0] {
		t.Fatalf("wrapped: %d encodes, want 1, or the blocks are not in the lent list", counting.encodes)
	}

	if _, _, err := enc.Get(1); err != nil {
		t.Fatal(err)
	}
	got, err = enc.GetAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	same("after a get", got)
	if counting.encodes != 2 {
		t.Fatalf("after a get: %d encodes, want 2 (GetAll's and Get's, served since)", counting.encodes)
	}
	enc.Expire()
	if _, err := enc.GetAll(nil); !errors.Is(err, ErrExpired) {
		t.Fatalf("GetAll after Expire returned %v, want ErrExpired", err)
	}
}
