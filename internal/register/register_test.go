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
	chunks, enc, err := EncodeWrite(cfg, oracle.WriteID{Client: 1, Seq: 1}, v, true)
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
	enc.Expire()

	// Decode from the first k chunks.
	got, err := DecodeChunks(cfg, chunks[:cfg.K])
	if err != nil {
		t.Fatalf("DecodeChunks: %v", err)
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
	chunks, _, err := EncodeWrite(cfg, oracle.WriteID{Client: 3, Seq: 4}, value.Sequenced(3, 4, 16), true)
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneChunks(chunks)
	clone[0].Block.Data[0] ^= 0xFF
	if chunks[0].Block.Data[0] == clone[0].Block.Data[0] {
		t.Fatal("CloneChunks shares block storage")
	}
	refs := ChunkRefs(chunks)
	if len(refs) != len(chunks) || refs[0].Bits != chunks[0].Block.SizeBits() {
		t.Fatalf("ChunkRefs wrong: %+v", refs[0])
	}
}

func TestBestDecodable(t *testing.T) {
	cfg, err := Config{F: 1, K: 2, DataLen: 32}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	vOld := value.Sequenced(1, 1, 32)
	vNew := value.Sequenced(2, 1, 32)
	oldChunks, _, err := EncodeWrite(cfg, oracle.WriteID{Client: 1, Seq: 1}, vOld, true)
	if err != nil {
		t.Fatal(err)
	}
	newChunks, _, err := EncodeWrite(cfg, oracle.WriteID{Client: 2, Seq: 1}, vNew, true)
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
	got, ts, ok := BestDecodable(mixed, ZeroTS, cfg.K)
	if !ok || ts != tsOld {
		t.Fatalf("BestDecodable = ts %v ok %v, want old ts", ts, ok)
	}
	v, err := DecodeChunks(cfg, got)
	if err != nil || !v.Equal(vOld) {
		t.Fatalf("decoded wrong value (err %v)", err)
	}

	// With minTS above the old timestamp, nothing qualifies.
	if _, _, ok := BestDecodable(mixed, tsNew, cfg.K); ok {
		t.Fatal("BestDecodable found a value above minTS unexpectedly")
	}

	// With both values fully present, the larger timestamp wins.
	both := append(CloneChunks(oldChunks), newChunks...)
	_, ts, ok = BestDecodable(both, ZeroTS, cfg.K)
	if !ok || ts != tsNew {
		t.Fatalf("BestDecodable with both = %v, want new ts", ts)
	}

	// Duplicate block indices of the same timestamp do not count as distinct.
	dups := []Chunk{newChunks[0], newChunks[0], newChunks[0]}
	if _, _, ok := BestDecodable(dups, ZeroTS, cfg.K); ok {
		t.Fatal("BestDecodable accepted duplicate indices as decodable")
	}
}

// TestBestDecodableKeepsArrivalOrderAndAllocatesItsResultOnly: the chunks of
// the winning timestamp come back in the order they were handed in, whatever
// lies between them; a hostile block index is not counted (and cannot reach
// outside the table that counts); and choosing among a quiescent n = 8 read
// set allocates the result and nothing else.
func TestBestDecodableKeepsArrivalOrderAndAllocatesItsResultOnly(t *testing.T) {
	piece := func(num, index int) Chunk {
		return Chunk{TS: Timestamp{Num: num, Client: 1}, Block: erasure.Block{Index: index}}
	}
	mixed := []Chunk{piece(2, 3), piece(1, 1), piece(2, 1), piece(3, 1), piece(1, 2), piece(2, 3), piece(2, 2)}
	got, ts, ok := BestDecodable(mixed, ZeroTS, 3)
	if want := []Chunk{mixed[0], mixed[2], mixed[5], mixed[6]}; !ok || ts.Num != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("BestDecodable = %+v at %v (ok %v), want the four chunks of write 2 as they arrived", got, ts, ok)
	}
	hostile := []Chunk{piece(1, -1), piece(1, 1<<40), piece(1, 256), piece(1, 1)}
	if _, _, ok := BestDecodable(hostile, ZeroTS, 2); ok {
		t.Fatal("BestDecodable counted block indices no code produces")
	}
	quiescent := make([]Chunk, 8)
	for i := range quiescent {
		quiescent[i] = piece(5, i+1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, _, ok := BestDecodable(quiescent, Timestamp{Num: 5, Client: 1}, 4); !ok || len(got) != 8 {
			t.Fatalf("BestDecodable on a quiescent read set: %d chunks, ok %v", len(got), ok)
		}
	})
	if allocs > 1 {
		t.Errorf("BestDecodable allocates %.0f times on a quiescent read set, want its result alone", allocs)
	}
}
