package storagecost

import (
	"strings"
	"testing"

	"spacebounds/internal/oracle"
)

// staticReporter is a test Reporter backed by a fixed slice.
type staticReporter []BlockInfo

func (s staticReporter) StorageBlocks() []BlockInfo { return s }

func block(kind LocationKind, locID int, w oracle.WriteID, index, bits int) BlockInfo {
	return BlockInfo{
		Location: Location{Kind: kind, ID: locID},
		Source:   oracle.SourceTag{Write: w, Index: index},
		Bits:     bits,
	}
}

func TestCollectAggregates(t *testing.T) {
	w1 := oracle.WriteID{Client: 1, Seq: 1}
	w2 := oracle.WriteID{Client: 2, Seq: 1}
	reporters := []Reporter{
		staticReporter{
			block(BaseObject, 0, w1, 1, 100),
			block(BaseObject, 0, w2, 1, 50),
		},
		staticReporter{
			block(BaseObject, 1, w1, 2, 100),
		},
		staticReporter{
			block(Client, 1, w1, 3, 100), // writer's own client: excluded from outside bits
			block(Channel, 2, w2, 2, 70), // writer's own channel: excluded from outside bits
			block(Client, 3, w2, 3, 30),  // another client's state: counted
		},
		nil,
	}
	snap := Collect(reporters, nil)
	if snap.TotalBits != 100+50+100+100+70+30 {
		t.Fatalf("TotalBits = %d", snap.TotalBits)
	}
	if snap.BaseObjectBits != 250 || snap.ClientBits != 130 || snap.ChannelBits != 70 {
		t.Fatalf("breakdown = base %d / client %d / channel %d", snap.BaseObjectBits, snap.ClientBits, snap.ChannelBits)
	}
	if snap.PerObjectBits[0] != 150 || snap.PerObjectBits[1] != 100 {
		t.Fatalf("PerObjectBits = %v", snap.PerObjectBits)
	}
	// Outside bits: w1 has indices 1 (100) and 2 (100) outside client 1 = 200;
	// w2 has index 1 (50) at bo0 and index 3 (30) at client 3 = 80.
	if snap.PerWriteOutsideBits[w1] != 200 {
		t.Fatalf("PerWriteOutsideBits[w1] = %d, want 200", snap.PerWriteOutsideBits[w1])
	}
	if snap.PerWriteOutsideBits[w2] != 80 {
		t.Fatalf("PerWriteOutsideBits[w2] = %d, want 80", snap.PerWriteOutsideBits[w2])
	}
	if !strings.Contains(snap.String(), "total=450b") {
		t.Fatalf("String() = %q", snap.String())
	}
}

func TestCollectDistinctIndexSemantics(t *testing.T) {
	// Two instances of the same ⟨write, index⟩ in the storage: total bits
	// counts both, but ||S(t,w)|| counts the index once (Definition 6).
	w := oracle.WriteID{Client: 5, Seq: 2}
	reporters := []Reporter{staticReporter{
		block(BaseObject, 0, w, 1, 40),
		block(BaseObject, 1, w, 1, 40),
		block(BaseObject, 2, w, 2, 40),
	}}
	snap := Collect(reporters, nil)
	if snap.TotalBits != 120 {
		t.Fatalf("TotalBits = %d, want 120", snap.TotalBits)
	}
	if snap.PerWriteOutsideBits[w] != 80 {
		t.Fatalf("PerWriteOutsideBits = %d, want 80 (distinct indices only)", snap.PerWriteOutsideBits[w])
	}
}

func TestCollectWriterOfOverride(t *testing.T) {
	w := oracle.WriteID{Client: 9, Seq: 1}
	reporters := []Reporter{staticReporter{
		block(Client, 4, w, 1, 10),
	}}
	// With the override saying client 4 performs w, the block is at the
	// writer's own client and must be excluded from outside bits.
	snap := Collect(reporters, func(oracle.WriteID) int { return 4 })
	if snap.PerWriteOutsideBits[w] != 0 {
		t.Fatalf("PerWriteOutsideBits = %d, want 0", snap.PerWriteOutsideBits[w])
	}
}

func TestFullAndHeavyLightClassification(t *testing.T) {
	w1 := oracle.WriteID{Client: 1, Seq: 1}
	w2 := oracle.WriteID{Client: 2, Seq: 1}
	reporters := []Reporter{staticReporter{
		block(BaseObject, 0, w1, 1, 600),
		block(BaseObject, 1, w2, 1, 100),
	}}
	snap := Collect(reporters, nil)
	full := snap.Full(500)
	if !full[0] || full[1] {
		t.Fatalf("Full(500) = %v", full)
	}
	outstanding := []oracle.WriteID{w1, w2}
	const dBits, ell = 1000, 500
	heavy := snap.HeavyWrites(outstanding, dBits, ell)
	light := snap.LightWrites(outstanding, dBits, ell)
	if len(heavy) != 1 || heavy[0] != w1 {
		t.Fatalf("HeavyWrites = %v", heavy)
	}
	if len(light) != 1 || light[0] != w2 {
		t.Fatalf("LightWrites = %v", light)
	}
}

func TestAccountant(t *testing.T) {
	acc := NewAccountant(true)
	w := oracle.WriteID{Client: 1, Seq: 1}
	for i, bits := range []int{100, 400, 200} {
		snap := Collect([]Reporter{staticReporter{block(BaseObject, i%2, w, 1, bits)}}, nil)
		acc.Observe(snap)
	}
	if acc.Samples() != 3 {
		t.Fatalf("Samples = %d", acc.Samples())
	}
	if acc.MaxTotalBits() != 400 || acc.MaxBaseObjectBits() != 400 {
		t.Fatalf("max = %d / %d, want 400", acc.MaxTotalBits(), acc.MaxBaseObjectBits())
	}
	if acc.Last() == nil || acc.Last().TotalBits != 200 {
		t.Fatalf("Last = %v", acc.Last())
	}
	peaks := acc.PeakPerObject()
	if peaks[0] != 200 || peaks[1] != 400 {
		t.Fatalf("PeakPerObject = %v", peaks)
	}
	series := acc.Series()
	if len(series) != 3 || series[1] != 400 {
		t.Fatalf("Series = %v", series)
	}
}

func TestAccountantZeroValueUsable(t *testing.T) {
	var acc Accountant
	acc.Observe(Collect(nil, nil))
	if acc.MaxTotalBits() != 0 || acc.Samples() != 1 {
		t.Fatalf("zero-value accountant misbehaved: %d samples, max %d", acc.Samples(), acc.MaxTotalBits())
	}
	if len(acc.Series()) != 0 {
		t.Fatal("zero-value accountant recorded a series")
	}
}

func TestLocationStrings(t *testing.T) {
	if BaseObject.String() != "base-object" || Client.String() != "client" || Channel.String() != "channel" {
		t.Fatal("unexpected LocationKind strings")
	}
	if LocationKind(99).String() == "" {
		t.Fatal("unknown LocationKind rendered empty")
	}
	if (Location{Kind: BaseObject, ID: 3}).String() != "base-object#3" {
		t.Fatalf("Location.String() = %q", Location{Kind: BaseObject, ID: 3}.String())
	}
}
