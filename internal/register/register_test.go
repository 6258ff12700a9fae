package register

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"spacebounds/internal/erasure"
	"spacebounds/internal/oracle"
	"spacebounds/internal/value"
)

func TestTimestampOrdering(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		less bool
	}{
		{Timestamp{0, 0}, Timestamp{0, 0}, false},
		{Timestamp{0, 0}, Timestamp{1, 0}, true},
		{Timestamp{1, 2}, Timestamp{1, 3}, true},
		{Timestamp{2, 1}, Timestamp{1, 9}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Timestamp{1, 1}).LessEq(Timestamp{1, 1}) {
		t.Error("LessEq not reflexive")
	}
	if (Timestamp{3, 0}).Max(Timestamp{2, 9}) != (Timestamp{3, 0}) {
		t.Error("Max wrong")
	}
	if (Timestamp{1, 2}).String() == "" {
		t.Error("empty String")
	}
}

func TestTimestampTotalOrderProperty(t *testing.T) {
	prop := func(a, b, c int8, d, e, f int8) bool {
		x := Timestamp{Num: int(a), Client: int(d)}
		y := Timestamp{Num: int(b), Client: int(e)}
		z := Timestamp{Num: int(c), Client: int(f)}
		// Antisymmetry and transitivity on a sample.
		if x.Less(y) && y.Less(x) {
			return false
		}
		if x.Less(y) && y.Less(z) && !x.Less(z) {
			return false
		}
		// Totality.
		return x == y || x.Less(y) || y.Less(x)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("timestamp order is not a total order: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg, err := Config{F: 2, K: 3, DataLen: 120}.Validate()
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.N() != 7 || cfg.Quorum() != 5 || cfg.DataBits() != 960 {
		t.Fatalf("derived parameters wrong: n=%d q=%d D=%d", cfg.N(), cfg.Quorum(), cfg.DataBits())
	}
	if cfg.Code == nil || cfg.Code.K() != 3 {
		t.Fatal("default code not built")
	}

	// k = 1 yields replication, the code's 1-of-n instance.
	cfg1, err := Config{F: 1, K: 1, DataLen: 10}.Validate()
	if err != nil {
		t.Fatalf("Validate k=1: %v", err)
	}
	if cfg1.Code.Name() != "rs(1,3)" {
		t.Fatalf("k=1 code = %s, want rs(1,3)", cfg1.Code.Name())
	}

	bad := []Config{
		{F: -1, K: 1, DataLen: 1},
		{F: 1, K: 0, DataLen: 1},
		{F: 1, K: 1, DataLen: 0},
		{F: 120, K: 120, DataLen: 1},
		{F: 1, K: 2, DataLen: 8, Code: erasure.MustReedSolomon(3, 9)}, // k mismatch
	}
	for i, b := range bad {
		if _, err := b.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("bad config %d validated: %v", i, err)
		}
	}
}

func TestEncodeWriteAndInitialChunks(t *testing.T) {
	cfg, err := Config{F: 1, K: 2, DataLen: 64}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	v := value.Sequenced(1, 1, 64)
	chunks, err := EncodeWrite(nil, cfg, oracle.WriteID{Client: 1, Seq: 1}, v, true)
	if err != nil {
		t.Fatalf("EncodeWrite: %v", err)
	}
	if len(chunks) != cfg.N() {
		t.Fatalf("EncodeWrite returned %d chunks, want %d", len(chunks), cfg.N())
	}
	for i, c := range chunks {
		if c.Block.Index != i+1 {
			t.Fatalf("chunk %d has block index %d", i, c.Block.Index)
		}
		if c.Source.Index != i+1 || c.Source.Write != (oracle.WriteID{Client: 1, Seq: 1}) {
			t.Fatalf("chunk %d has wrong source %v", i, c.Source)
		}
	}

	// Decode from the first k chunks.
	got, _, ok, err := DecodeBest(nil, cfg, chunks[:cfg.K], ZeroTS)
	if !ok || err != nil {
		t.Fatalf("DecodeBest: ok %v, %v", ok, err)
	}
	if !got.Equal(v) {
		t.Fatal("decoded value differs")
	}

	init, err := InitialChunks(cfg, value.Zero(64))
	if err != nil {
		t.Fatalf("InitialChunks: %v", err)
	}
	for _, c := range init {
		if c.TS != ZeroTS || c.Source.Write != oracle.InitialWrite {
			t.Fatalf("initial chunk badly tagged: %+v", c)
		}
	}
	if _, err := InitialChunks(cfg, value.Zero(3)); !errors.Is(err, ErrConfig) {
		t.Fatalf("InitialChunks with wrong size: %v", err)
	}
}

func TestChunkHelpers(t *testing.T) {
	cfg, err := Config{F: 1, K: 2, DataLen: 16}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := EncodeWrite(nil, cfg, oracle.WriteID{Client: 3, Seq: 4}, value.Sequenced(3, 4, 16), true)
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneChunks(chunks)
	clone[0].Block.Data[0] ^= 0xFF
	if chunks[0].Block.Data[0] == clone[0].Block.Data[0] {
		t.Fatal("CloneChunks shares block storage")
	}
	refs := AppendChunkRefs(nil, chunks)
	if len(refs) != len(chunks) || refs[0].Bits != chunks[0].Block.SizeBits() {
		t.Fatalf("AppendChunkRefs wrong: %+v", refs[0])
	}
}

func TestBestDecodable(t *testing.T) {
	cfg, err := Config{F: 1, K: 2, DataLen: 32}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	vOld := value.Sequenced(1, 1, 32)
	vNew := value.Sequenced(2, 1, 32)
	oldChunks, err := EncodeWrite(nil, cfg, oracle.WriteID{Client: 1, Seq: 1}, vOld, true)
	if err != nil {
		t.Fatal(err)
	}
	newChunks, err := EncodeWrite(nil, cfg, oracle.WriteID{Client: 2, Seq: 1}, vNew, true)
	if err != nil {
		t.Fatal(err)
	}
	tsOld := Timestamp{Num: 1, Client: 1}
	tsNew := Timestamp{Num: 2, Client: 2}
	for i := range oldChunks {
		oldChunks[i].TS = tsOld
	}
	for i := range newChunks {
		newChunks[i].TS = tsNew
	}

	// Old value fully present, new value has only one piece: best decodable
	// at minTS=0 is the old value.
	mixed := append(CloneChunks(oldChunks), newChunks[0])
	v, ts, ok, err := DecodeBest(nil, cfg, mixed, ZeroTS)
	if !ok || ts != tsOld {
		t.Fatalf("DecodeBest = ts %v ok %v, want old ts", ts, ok)
	}
	if err != nil || !v.Equal(vOld) {
		t.Fatalf("decoded wrong value (err %v)", err)
	}

	// With minTS above the old timestamp, nothing qualifies.
	if _, _, ok, _ := DecodeBest(nil, cfg, mixed, tsNew); ok {
		t.Fatal("DecodeBest found a value above minTS unexpectedly")
	}

	// With both values fully present, the larger timestamp wins.
	both := append(CloneChunks(oldChunks), newChunks...)
	v, ts, ok, err = DecodeBest(nil, cfg, both, ZeroTS)
	if !ok || ts != tsNew {
		t.Fatalf("DecodeBest with both = %v, want new ts", ts)
	}
	if err != nil || !v.Equal(vNew) {
		t.Fatalf("decoded wrong value with both (err %v)", err)
	}

	// Duplicate block indices of the same timestamp do not count as distinct.
	dups := []Chunk{newChunks[0], newChunks[0], newChunks[0]}
	if _, _, ok, _ := DecodeBest(nil, cfg, dups, ZeroTS); ok {
		t.Fatal("DecodeBest accepted duplicate indices as decodable")
	}
}

// recordingCode is a code whose Decode records the blocks it is handed.
type recordingCode struct {
	erasure.Code
	got []erasure.Block
}

func (c *recordingCode) Decode(dataLen int, blocks []erasure.Block) ([]byte, error) {
	c.got = append(c.got[:0], blocks...)
	return c.Code.Decode(dataLen, blocks)
}

// TestDecodeBestKeepsArrivalOrderAndAllocatesNoGroup: the chunks of the
// winning timestamp reach the decoder in the order they were handed in,
// whatever lies between them; a hostile block index is not counted (and
// cannot reach outside the table that counts); and decoding a quiescent
// n = 8 read set allocates the oracle's list and the value and nothing else:
// no group of the winner's chunks, and no generator rows while every data
// block is there.
func TestDecodeBestKeepsArrivalOrderAndAllocatesNoGroup(t *testing.T) {
	code := &recordingCode{Code: erasure.MustReedSolomon(3, 5)}
	cfg, err := Config{F: 1, K: 3, DataLen: 48, Code: code}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	writes := make([][]Chunk, 4)
	for num := 1; num <= 3; num++ {
		if writes[num], err = EncodeWrite(nil, cfg, oracle.WriteID{Client: 1, Seq: num}, value.Sequenced(1, num, 48), true); err != nil {
			t.Fatal(err)
		}
		for i := range writes[num] {
			writes[num][i].TS = Timestamp{Num: num, Client: 1}
		}
	}
	piece := func(num, index int) Chunk { return writes[num][index-1] }
	mixed := []Chunk{piece(2, 3), piece(1, 1), piece(2, 1), piece(3, 1), piece(1, 2), piece(2, 3), piece(2, 2)}
	v, ts, ok, err := DecodeBest(nil, cfg, mixed, ZeroTS)
	if !ok || err != nil || ts.Num != 2 || !v.Equal(value.Sequenced(1, 2, 48)) {
		t.Fatalf("DecodeBest = %v at %v (ok %v, err %v), want write 2's value", v, ts, ok, err)
	}
	want := []erasure.Block{mixed[0].Block, mixed[2].Block, mixed[5].Block, mixed[6].Block}
	if !reflect.DeepEqual(code.got, want) {
		t.Fatalf("the decoder was handed %+v, want the four chunks of write 2 as they arrived", code.got)
	}
	// Two valid indices against k = 3: counting any one hostile index would
	// make the write decodable.
	hostile := []Chunk{piece(1, 1), piece(1, 1), piece(1, 1), piece(1, 1), piece(1, 2)}
	for i, index := range []int{-1, 1 << 40, 256} {
		hostile[i].Block.Index = index
	}
	if _, _, ok, _ := DecodeBest(nil, cfg, hostile, ZeroTS); ok {
		t.Fatal("DecodeBest counted block indices no code produces")
	}

	cfg8, err := Config{F: 2, K: 4, DataLen: 64}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	quiescent, err := EncodeWrite(nil, cfg8, oracle.WriteID{Client: 1, Seq: 5}, value.Sequenced(1, 5, 64), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiescent {
		quiescent[i].TS = Timestamp{Num: 5, Client: 1}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok, err := DecodeBest(nil, cfg8, quiescent, Timestamp{Num: 5, Client: 1}); !ok || err != nil {
			t.Fatalf("DecodeBest on a quiescent read set: ok %v, %v", ok, err)
		}
	})
	if allocs > 2 {
		t.Errorf("DecodeBest allocates %.0f times on a quiescent read set, want the oracle's list and the value alone", allocs)
	}
}
