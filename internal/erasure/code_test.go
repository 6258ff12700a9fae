package erasure

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// allCodes returns the k-of-n code and replication, its 1-of-n instance.
func allCodes(t *testing.T, k, n int) []Code {
	t.Helper()
	rs, err := NewReedSolomon(k, n)
	if err != nil {
		t.Fatalf("NewReedSolomon(%d,%d): %v", k, n, err)
	}
	return []Code{rs, MustReedSolomon(1, n)}
}

// label names a code's subtest: the k-of-n code by its name, replication by
// what it is, repl(n).
func label(c Code) string {
	if c.K() == 1 {
		return fmt.Sprintf("repl(%d)", c.N())
	}
	return c.Name()
}

func TestEncodeDecodeRoundTripAllCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range allCodes(t, 3, 7) {
		c := c
		t.Run(label(c), func(t *testing.T) {
			for _, dataLen := range []int{1, 3, 16, 100, 1024, 4096} {
				data := make([]byte, dataLen)
				if _, err := rng.Read(data); err != nil {
					t.Fatalf("rand: %v", err)
				}
				blocks, err := c.Encode(data)
				if err != nil {
					t.Fatalf("Encode(%d bytes): %v", dataLen, err)
				}
				if len(blocks) != c.N() {
					t.Fatalf("Encode produced %d blocks, want %d", len(blocks), c.N())
				}
				got, err := c.Decode(dataLen, blocks)
				if err != nil {
					t.Fatalf("Decode(%d bytes): %v", dataLen, err)
				}
				if string(got) != string(data) {
					t.Fatalf("round trip mismatch for %d bytes", dataLen)
				}
			}
		})
	}
}

func TestDecodeFromAnyKSubset(t *testing.T) {
	const dataLen = 257
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, dataLen)
	if _, err := rng.Read(data); err != nil {
		t.Fatalf("rand: %v", err)
	}
	for _, c := range allCodes(t, 3, 7) {
		c := c
		t.Run(label(c), func(t *testing.T) {
			blocks, err := c.Encode(data)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			for trial := 0; trial < 50; trial++ {
				perm := rng.Perm(len(blocks))[:c.K()]
				subset := make([]Block, 0, c.K())
				for _, i := range perm {
					subset = append(subset, blocks[i])
				}
				got, err := c.Decode(dataLen, subset)
				if err != nil {
					t.Fatalf("Decode from subset %v: %v", perm, err)
				}
				if string(got) != string(data) {
					t.Fatalf("Decode from subset %v returned wrong value", perm)
				}
			}
		})
	}
}

func TestDecodeInsufficientBlocks(t *testing.T) {
	data := []byte("a value that needs protecting")
	for _, c := range allCodes(t, 4, 9) {
		c := c
		t.Run(label(c), func(t *testing.T) {
			blocks, err := c.Encode(data)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			_, err = c.Decode(len(data), blocks[:c.K()-1])
			if !errors.Is(err, ErrNotEnoughBlocks) {
				t.Fatalf("Decode with %d blocks returned %v, want ErrNotEnoughBlocks", c.K()-1, err)
			}
		})
	}
}

func TestDuplicateBlocksDoNotHelp(t *testing.T) {
	data := []byte("duplicate detection")
	for _, c := range allCodes(t, 3, 5) {
		if c.K() == 1 {
			continue // replication decodes from one block by design
		}
		c := c
		t.Run(label(c), func(t *testing.T) {
			blocks, err := c.Encode(data)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			dups := []Block{blocks[0], blocks[0], blocks[0], blocks[0]}
			if _, err := c.Decode(len(data), dups); !errors.Is(err, ErrNotEnoughBlocks) {
				t.Fatalf("Decode from duplicates returned %v, want ErrNotEnoughBlocks", err)
			}
		})
	}
}

func TestSymmetryAllCodes(t *testing.T) {
	for _, c := range allCodes(t, 3, 7) {
		if err := CheckSymmetry(c, 500); err != nil {
			t.Errorf("CheckSymmetry(%s): %v", c.Name(), err)
		}
	}
	if err := CheckSymmetry(MustReedSolomon(2, 4), 0); err == nil {
		t.Error("CheckSymmetry accepted non-positive data length")
	}
}

func TestEncodeBlockMatchesEncode(t *testing.T) {
	data := []byte("per-block oracle access must match bulk encoding output.")
	for _, c := range allCodes(t, 3, 6) {
		c := c
		t.Run(label(c), func(t *testing.T) {
			blocks, err := c.Encode(data)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			for _, want := range blocks {
				got, err := c.EncodeBlock(data, want.Index)
				if err != nil {
					t.Fatalf("EncodeBlock(%d): %v", want.Index, err)
				}
				if string(got.Data) != string(want.Data) {
					t.Fatalf("EncodeBlock(%d) differs from Encode output", want.Index)
				}
			}
		})
	}
}

func TestBlockSizeAccounting(t *testing.T) {
	const dataLen = 1000
	rs := MustReedSolomon(4, 10)
	if sz := rs.BlockSizeBytes(dataLen, 1); sz != 250 {
		t.Fatalf("rs block size = %d, want 250", sz)
	}
}

func TestBlockSizeBits(t *testing.T) {
	b := Block{Index: 1, Data: make([]byte, 17)}
	if b.SizeBits() != 136 {
		t.Fatalf("SizeBits = %d, want 136", b.SizeBits())
	}
	c := b.Clone()
	c.Data[0] = 0xFF
	if b.Data[0] == 0xFF {
		t.Fatal("Clone shares storage")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewReedSolomon(0, 5); err == nil {
		t.Error("NewReedSolomon accepted k=0")
	}
	if _, err := NewReedSolomon(6, 5); err == nil {
		t.Error("NewReedSolomon accepted k>n")
	}
	if _, err := NewReedSolomon(2, 256); err == nil {
		t.Error("NewReedSolomon accepted n>255")
	}
	if _, err := NewReedSolomon(1, 0); err == nil {
		t.Error("NewReedSolomon accepted n=0")
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"MustReedSolomon(0,1)": func() { MustReedSolomon(0, 1) },
		"MustReedSolomon(1,0)": func() { MustReedSolomon(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid parameters did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEncodeBlockIndexValidation(t *testing.T) {
	data := []byte("x")
	rs := MustReedSolomon(2, 4)
	if _, err := rs.EncodeBlock(data, 0); !errors.Is(err, ErrBlockIndex) {
		t.Errorf("rs EncodeBlock(0) err = %v, want ErrBlockIndex", err)
	}
	if _, err := rs.EncodeBlock(data, 5); !errors.Is(err, ErrBlockIndex) {
		t.Errorf("rs EncodeBlock(5) err = %v, want ErrBlockIndex", err)
	}
	repl := MustReedSolomon(1, 2)
	if _, err := repl.EncodeBlock(data, -1); !errors.Is(err, ErrBlockIndex) {
		t.Errorf("rs(1,2) EncodeBlock(-1) err = %v, want ErrBlockIndex", err)
	}
	if _, err := repl.EncodeBlock(data, 3); !errors.Is(err, ErrBlockIndex) {
		t.Errorf("rs(1,2) EncodeBlock(3) err = %v, want ErrBlockIndex", err)
	}
}

func TestDecodeWrongBlockSize(t *testing.T) {
	data := []byte("size validation for decode paths")
	for _, c := range allCodes(t, 3, 6) {
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatalf("%s Encode: %v", c.Name(), err)
		}
		blocks[0].Data = append(blocks[0].Data, 0xAA)
		if _, err := c.Decode(len(data), blocks); !errors.Is(err, ErrBlockSize) {
			t.Errorf("%s Decode with oversized block returned %v, want ErrBlockSize", c.Name(), err)
		}
	}
}

// TestReedSolomonQuick is a property-based round-trip over random payloads
// and random k-subsets of blocks.
func TestReedSolomonQuick(t *testing.T) {
	rs := MustReedSolomon(3, 8)
	rng := rand.New(rand.NewSource(99))
	prop := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		blocks, err := rs.Encode(data)
		if err != nil {
			return false
		}
		perm := rng.Perm(len(blocks))[:rs.K()]
		subset := make([]Block, 0, rs.K())
		for _, i := range perm {
			subset = append(subset, blocks[i])
		}
		got, err := rs.Decode(len(data), subset)
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("Reed-Solomon round-trip property failed: %v", err)
	}
}
