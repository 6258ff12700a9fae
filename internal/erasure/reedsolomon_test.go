package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestReedSolomonSystematic pins the code's systematic property: blocks 1..k
// are the value's shards as they stand, so concatenating them and trimming
// the padding gives the value back, whether the blocks come from Encode or
// from EncodeBlock.
func TestReedSolomonSystematic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []struct{ k, n, dataLen int }{
		{1, 1, 1}, {2, 4, 1024}, {4, 8, 64 << 10}, {4, 8, 3}, {4, 8, 1}, {3, 7, 100}, {200, 255, 1000},
	} {
		rs := MustReedSolomon(shape.k, shape.n)
		data := make([]byte, shape.dataLen)
		rng.Read(data)
		blocks, err := rs.Encode(data)
		if err != nil {
			t.Fatalf("%s Encode: %v", rs.Name(), err)
		}
		var joined, joinedSingly []byte
		for i := 1; i <= shape.k; i++ {
			joined = append(joined, blocks[i-1].Data...)
			b, err := rs.EncodeBlock(data, i)
			if err != nil {
				t.Fatalf("%s EncodeBlock(%d): %v", rs.Name(), i, err)
			}
			joinedSingly = append(joinedSingly, b.Data...)
		}
		if !bytes.Equal(joined[:shape.dataLen], data) {
			t.Errorf("%s, %d bytes: Encode's blocks 1..k are not the value's shards", rs.Name(), shape.dataLen)
		}
		if !bytes.Equal(joinedSingly[:shape.dataLen], data) {
			t.Errorf("%s, %d bytes: EncodeBlock's blocks 1..k are not the value's shards", rs.Name(), shape.dataLen)
		}
		for _, pad := range joined[shape.dataLen:] {
			if pad != 0 {
				t.Fatalf("%s, %d bytes: padding is not zero", rs.Name(), shape.dataLen)
			}
		}
	}
}

// TestReedSolomonAtKOneReplicates pins replication as the code's 1-of-n
// instance: every block Encode or EncodeBlock produces is the value byte for
// byte, block i sits at index i+1, and any single block decodes. Payloads and
// journals written by a k = 1 register hold exactly these bytes.
func TestReedSolomonAtKOneReplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 5} {
		rs := MustReedSolomon(1, n)
		for _, dataLen := range []int{1, 2, 31, 1024, 4099} {
			data := make([]byte, dataLen)
			rng.Read(data)
			blocks, err := rs.Encode(data)
			if err != nil {
				t.Fatalf("%s Encode: %v", rs.Name(), err)
			}
			if len(blocks) != n {
				t.Fatalf("%s Encode produced %d blocks, want %d", rs.Name(), len(blocks), n)
			}
			for i, b := range blocks {
				single, err := rs.EncodeBlock(data, i+1)
				if err != nil {
					t.Fatalf("%s EncodeBlock(%d): %v", rs.Name(), i+1, err)
				}
				for _, got := range []Block{b, single} {
					if got.Index != i+1 || !bytes.Equal(got.Data, data) {
						t.Fatalf("%s, %d bytes: block %d (index %d) is not the value", rs.Name(), dataLen, i+1, got.Index)
					}
				}
				decoded, err := rs.Decode(dataLen, []Block{b})
				if err != nil || !bytes.Equal(decoded, data) {
					t.Fatalf("%s, %d bytes: block %d alone does not decode: %v", rs.Name(), dataLen, i+1, err)
				}
			}
		}
	}
}

// TestReedSolomonBlocksOwnTheirMemory pins who owns what Encode returns.
// Parity blocks, and the padded tail shard of a value k does not divide, are
// exactly sized memory of their own. Whole data shards are views of the value,
// never written — encoding leaves the value as it was — until a holder that
// retains one detaches it. EncodeBlock's blocks
// are all their own.
func TestReedSolomonBlocksOwnTheirMemory(t *testing.T) {
	rs := MustReedSolomon(4, 8)
	for _, dataLen := range []int{4096, 4094} {
		data := make([]byte, dataLen)
		rand.New(rand.NewSource(int64(dataLen))).Read(data)
		value := bytes.Clone(data)
		blocks, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, value) {
			t.Fatalf("%d bytes: Encode wrote to the value", dataLen)
		}
		sl := rs.BlockSizeBytes(dataLen, 1)
		owned, singles := make([]Block, rs.N()), make([]Block, rs.N())
		for i, b := range blocks {
			view := (i+1)*sl <= dataLen && &b.Data[0] == &data[i*sl]
			if whole := i < rs.K() && (i+1)*sl <= dataLen; view != whole {
				t.Errorf("%d bytes, block %d: is a view of the value = %v, want %v", dataLen, b.Index, view, whole)
			}
			if !view && cap(b.Data) != len(b.Data) {
				t.Errorf("%d bytes, block %d: cap %d != len %d", dataLen, b.Index, cap(b.Data), len(b.Data))
			}
			owned[i] = b.Detach(data)
			if copied := &owned[i].Data[0] != &b.Data[0]; copied != view {
				t.Errorf("%d bytes, block %d: Detach copied = %v, want %v", dataLen, b.Index, copied, view)
			}
			if singles[i], err = rs.EncodeBlock(data, i+1); err != nil {
				t.Fatal(err)
			}
		}
		// Nothing detached or encoded singly shares memory with the value:
		// each still holds the block's bytes once the value is gone.
		clear(data)
		again, err := rs.Encode(value)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range again {
			for _, got := range []Block{owned[i], singles[i]} {
				if cap(got.Data) != len(got.Data) || !bytes.Equal(got.Data, want.Data) {
					t.Errorf("%d bytes, block %d: a detached or singly encoded block is not an exactly sized copy of its own", dataLen, want.Index)
				}
			}
		}
	}
}

func TestReedSolomonDecodeRejectsAnyBadBlock(t *testing.T) {
	rs := MustReedSolomon(3, 6)
	data := []byte("every supplied block is validated, not only the first k")
	blocks, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// The bad block comes after k good ones: a decoder that stops looking
	// once it has enough would accept the set.
	badIndex := append(append([]Block(nil), blocks[:4]...), Block{Index: 7, Data: blocks[4].Data})
	if _, err := rs.Decode(len(data), badIndex); !errors.Is(err, ErrBlockIndex) {
		t.Errorf("trailing block with index 7: err = %v, want ErrBlockIndex", err)
	}
	badIndex[4].Index = 0
	if _, err := rs.Decode(len(data), badIndex); !errors.Is(err, ErrBlockIndex) {
		t.Errorf("trailing block with index 0: err = %v, want ErrBlockIndex", err)
	}
	badSize := append(append([]Block(nil), blocks[:4]...), Block{Index: 5, Data: blocks[4].Data[:1]})
	if _, err := rs.Decode(len(data), badSize); !errors.Is(err, ErrBlockSize) {
		t.Errorf("trailing short block: err = %v, want ErrBlockSize", err)
	}
	dups := []Block{blocks[0], blocks[5], blocks[0], blocks[5], blocks[0]}
	if _, err := rs.Decode(len(data), dups); !errors.Is(err, ErrNotEnoughBlocks) {
		t.Errorf("two distinct of three: err = %v, want ErrNotEnoughBlocks", err)
	}
}

// FuzzReedSolomonRoundTrip drives the code over random shapes (k <= n <= 255,
// lengths that k does not divide and lengths below k included) and random
// selections of blocks: all data, all parity or mixed, in random order, with
// duplicates and with more than k blocks.
func FuzzReedSolomonRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(64), int64(1), uint8(0))     // all data blocks
	f.Add(uint8(4), uint8(4), uint16(63), int64(2), uint8(1))     // all parity blocks
	f.Add(uint8(4), uint8(4), uint16(2), int64(3), uint8(2))      // mixed, length < k
	f.Add(uint8(1), uint8(0), uint16(1), int64(4), uint8(2))      // k = n = 1
	f.Add(uint8(200), uint8(55), uint16(999), int64(5), uint8(2)) // n = 255
	f.Add(uint8(3), uint8(1), uint16(10), int64(6), uint8(1))     // fewer parity blocks than k
	f.Add(uint8(0), uint8(4), uint16(100), int64(7), uint8(1))    // k = 1, n = 5: replication
	f.Fuzz(func(t *testing.T, kIn, extraIn uint8, lenIn uint16, seed int64, mode uint8) {
		k := 1 + int(kIn)%255
		n := k + int(extraIn)%(256-k)
		dataLen := 1 + int(lenIn)%2048
		rng := rand.New(rand.NewSource(seed))
		rs, err := NewReedSolomon(k, n)
		if err != nil {
			t.Fatalf("NewReedSolomon(%d,%d): %v", k, n, err)
		}
		data := make([]byte, dataLen)
		rng.Read(data)
		blocks, err := rs.Encode(data)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if len(blocks) != n {
			t.Fatalf("Encode produced %d blocks, want %d", len(blocks), n)
		}
		var joined []byte
		for i, b := range blocks {
			if b.Index != i+1 || len(b.Data) != rs.BlockSizeBytes(dataLen, i+1) {
				t.Fatalf("block %d: index %d, %d bytes", i+1, b.Index, len(b.Data))
			}
			single, err := rs.EncodeBlock(data, i+1)
			if err != nil {
				t.Fatalf("EncodeBlock(%d): %v", i+1, err)
			}
			if single.Index != b.Index || !bytes.Equal(single.Data, b.Data) {
				t.Fatalf("EncodeBlock(%d) differs from Encode's block", i+1)
			}
			if i < k {
				joined = append(joined, b.Data...)
			}
		}
		if !bytes.Equal(joined[:dataLen], data) {
			t.Fatal("blocks 1..k are not the value's shards")
		}

		// Choose k distinct blocks: the data blocks, as many parity blocks
		// as there are (topped up with data blocks), or a random mixture.
		var chosen []int
		switch mode % 3 {
		case 0:
			chosen = rng.Perm(k)
		case 1:
			for _, p := range rng.Perm(n - k) {
				chosen = append(chosen, k+p)
			}
			for _, d := range rng.Perm(k) {
				chosen = append(chosen, d)
			}
			chosen = chosen[:k]
		default:
			chosen = rng.Perm(n)[:k]
		}
		supplied := make([]Block, 0, 2*k+2)
		for _, i := range chosen {
			supplied = append(supplied, blocks[i])
		}
		for extra := rng.Intn(k + 2); extra > 0; extra-- {
			supplied = append(supplied, blocks[rng.Intn(n)]) // duplicates and further blocks
		}
		rng.Shuffle(len(supplied), func(a, b int) { supplied[a], supplied[b] = supplied[b], supplied[a] })
		got, err := rs.Decode(dataLen, supplied)
		if err != nil {
			t.Fatalf("Decode from blocks %v (+%d more): %v", chosen, len(supplied)-k, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Decode from blocks %v (+%d more) returned a different value", chosen, len(supplied)-k)
		}

		// One block short, however often the others are repeated.
		short := blocksAt(blocks, chosen[:k-1])
		short = append(short, short...)
		if _, err := rs.Decode(dataLen, short); !errors.Is(err, ErrNotEnoughBlocks) {
			t.Fatalf("Decode from %d distinct blocks: err = %v, want ErrNotEnoughBlocks", k-1, err)
		}
		// A bad block anywhere in an otherwise sufficient set is refused.
		at := rng.Intn(len(supplied) + 1)
		withBad := func(bad Block) []Block {
			out := append([]Block(nil), supplied[:at]...)
			return append(append(out, bad), supplied[at:]...)
		}
		if _, err := rs.Decode(dataLen, withBad(Block{Index: n + 1, Data: blocks[0].Data})); !errors.Is(err, ErrBlockIndex) {
			t.Fatalf("block index %d at position %d: err = %v, want ErrBlockIndex", n+1, at, err)
		}
		if _, err := rs.Decode(dataLen, withBad(Block{Index: 1, Data: append(bytes.Clone(blocks[0].Data), 0)})); !errors.Is(err, ErrBlockSize) {
			t.Fatalf("oversized block at position %d: err = %v, want ErrBlockSize", at, err)
		}
	})
}

func blocksAt(blocks []Block, at []int) []Block {
	out := make([]Block, len(at))
	for i, p := range at {
		out[i] = blocks[p]
	}
	return out
}

// kSubsets lists every k-element subset of 0..n-1, each in ascending order.
func kSubsets(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for first := 0; first <= n-k; first++ {
		for _, rest := range kSubsets(n-first-1, k-1) {
			s := []int{first}
			for _, r := range rest {
				s = append(s, first+1+r)
			}
			out = append(out, s)
		}
	}
	return out
}

// decodeSubsets decodes data from each subset of its blocks, handed over in
// reverse order when reversed is set, and reports the first wrong result.
func decodeSubsets(rs *ReedSolomon, data []byte, blocks []Block, subsets [][]int, reversed bool) error {
	for _, at := range subsets {
		subset := blocksAt(blocks, at)
		if reversed {
			slices.Reverse(subset)
		}
		got, err := rs.Decode(len(data), subset)
		if err != nil {
			return fmt.Errorf("%s: decode from %v: %v", rs.Name(), at, err)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("%s: decode from %v returned a wrong value", rs.Name(), at)
		}
	}
	return nil
}

// cachedInverses is how many inverses the code keeps.
func cachedInverses(rs *ReedSolomon) int {
	if m := rs.inverses.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// TestInverseCacheDecodesEveryPattern decodes every k-subset of a value's
// blocks cold, warm (the blocks handed over in the other order: the cache is
// keyed by the set of rows, not by their order) and from eight goroutines at
// once on a fresh code, where they race to store the inverses. Each cold
// pattern that lacks a data block stores one inverse; the one pattern of
// data blocks alone needs none.
func TestInverseCacheDecodesEveryPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, shape := range []struct{ k, n int }{{1, 3}, {2, 4}, {2, 6}, {4, 8}} {
		data := make([]byte, 1000+shape.k) // k does not divide it but at k = 1
		rng.Read(data)
		subsets := kSubsets(shape.n, shape.k)
		rs := MustReedSolomon(shape.k, shape.n)
		blocks, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeSubsets(rs, data, blocks, subsets, false); err != nil {
			t.Fatalf("cold: %v", err)
		}
		if got, want := cachedInverses(rs), len(subsets)-1; got != want {
			t.Errorf("%s keeps %d inverses after decoding every pattern, want %d", rs.Name(), got, want)
		}
		if err := decodeSubsets(rs, data, blocks, subsets, true); err != nil {
			t.Fatalf("warm: %v", err)
		}

		fresh := MustReedSolomon(shape.k, shape.n)
		errs := make(chan error, 8)
		for g := range 8 {
			go func() {
				rotated := append(slices.Clone(subsets[g%len(subsets):]), subsets[:g%len(subsets)]...)
				errs <- decodeSubsets(fresh, data, blocks, rotated, g%2 == 1)
			}()
		}
		for range 8 {
			if err := <-errs; err != nil {
				t.Fatalf("concurrent: %v", err)
			}
		}
		if got, want := cachedInverses(fresh), len(subsets)-1; got != want {
			t.Errorf("%s keeps %d inverses after concurrent decodes, want %d", fresh.Name(), got, want)
		}
	}
}

// TestInverseCacheIsBounded: a code with more patterns than the cache holds
// still decodes every one of them, cold and again once the cache is full.
func TestInverseCacheIsBounded(t *testing.T) {
	const k, n = 4, 12 // C(12, 4) = 495 patterns
	rs := MustReedSolomon(k, n)
	data := make([]byte, 4096)
	rand.New(rand.NewSource(12)).Read(data)
	blocks, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	subsets := kSubsets(n, k)
	if len(subsets)-1 <= maxInverses {
		t.Fatalf("%d patterns fit the cache of %d", len(subsets), maxInverses)
	}
	for pass := range 2 {
		if err := decodeSubsets(rs, data, blocks, subsets, pass == 1); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got := cachedInverses(rs); got != maxInverses {
			t.Fatalf("pass %d: the cache holds %d inverses, want its bound %d", pass, got, maxInverses)
		}
	}
}

// TestWarmReconstructionAllocatesOnlyItsOutput: once a pattern's inverse is
// cached, a decode that rebuilds every data block from parity allocates the
// value and nothing else — the generator rows and the blocks used are listed
// on its stack.
func TestWarmReconstructionAllocatesOnlyItsOutput(t *testing.T) {
	rs := MustReedSolomon(4, 8)
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(8)).Read(data)
	blocks, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	parity := blocks[4:]
	decode := func() {
		if _, err := rs.Decode(len(data), parity); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(100, decode); got > 1 {
		t.Errorf("a warm reconstructing decode allocates %.1f times, want at most 1 (its output)", got)
	}
}
