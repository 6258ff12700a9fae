package storagecost

import (
	"testing"

	"spacebounds/internal/oracle"
)

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
	snap := Collect([]BlockInfo{
		block(BaseObject, 0, w1, 1, 100),
		block(BaseObject, 0, w2, 1, 50),
		block(BaseObject, 1, w1, 2, 100),
		block(Client, 1, w1, 3, 100),
		block(Channel, 2, w2, 2, 70),
		block(Client, 3, w2, 3, 30),
		block(DurableLog, 0, w1, 1, 400),
		block(DurableSnapshot, -1, w1, 1, 16),
	})
	if snap.TotalBits != 100+50+100+100+70+30 {
		t.Fatalf("TotalBits = %d", snap.TotalBits)
	}
	if snap.BaseObjectBits != 250 || snap.ClientBits != 130 || snap.ChannelBits != 70 {
		t.Fatalf("breakdown = base %d / client %d / channel %d", snap.BaseObjectBits, snap.ClientBits, snap.ChannelBits)
	}
	if snap.PerObjectBits[0] != 150 || snap.PerObjectBits[1] != 100 {
		t.Fatalf("PerObjectBits = %v", snap.PerObjectBits)
	}
	// The durability axis is summed apart and never reaches TotalBits.
	if snap.DurableBits() != 416 || snap.PerObjectDurableBits[0] != 400 || snap.PerObjectDurableBits[-1] != 16 {
		t.Fatalf("durable = %d, per object %v", snap.DurableBits(), snap.PerObjectDurableBits)
	}
	if len(snap.Blocks) != 8 {
		t.Fatalf("snapshot lists %d blocks, want 8", len(snap.Blocks))
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
