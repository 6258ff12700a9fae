package adversary

import (
	"reflect"
	"testing"

	"spacebounds/internal/oracle"
	"spacebounds/internal/storagecost"
)

func block(kind storagecost.LocationKind, locID int, w oracle.WriteID, index, bits int) storagecost.BlockInfo {
	return storagecost.BlockInfo{
		Location: storagecost.Location{Kind: kind, ID: locID},
		Source:   oracle.SourceTag{Write: w, Index: index},
		Bits:     bits,
	}
}

func TestOutsideBitsExcludeTheWritersOwnClient(t *testing.T) {
	w1 := oracle.WriteID{Client: 1, Seq: 1}
	w2 := oracle.WriteID{Client: 2, Seq: 1}
	outside := outsideBits(storagecost.Collect([]storagecost.BlockInfo{
		block(storagecost.BaseObject, 0, w1, 1, 100),
		block(storagecost.BaseObject, 0, w2, 1, 50),
		block(storagecost.BaseObject, 1, w1, 2, 100),
		block(storagecost.Client, 1, w1, 3, 100),         // the writer's own client
		block(storagecost.Channel, 2, w2, 2, 70),         // the writer's own channel
		block(storagecost.Client, 3, w2, 3, 30),          // another client's state: counted
		block(storagecost.DurableLog, 0, w1, 4, 4096),    // not Definition 2
		block(storagecost.Channel, 7, w1, 5, 0),          // another channel, empty
		block(storagecost.DurableSnapshot, -1, w2, 4, 8), // not Definition 2
	}))
	// w1: indices 1 and 2 outside client 1; w2: index 1 at object 0 and
	// index 3 at client 3.
	if want := map[oracle.WriteID]int{w1: 200, w2: 80}; !reflect.DeepEqual(outside, want) {
		t.Fatalf("outsideBits = %v, want %v", outside, want)
	}
	// A write whose blocks are all at its own client, locally held or in its
	// pending RMWs, has contributed nothing outside it.
	w := oracle.WriteID{Client: 7, Seq: 1}
	outside = outsideBits(storagecost.Collect([]storagecost.BlockInfo{
		block(storagecost.Client, 7, w, 1, 64),
		block(storagecost.Channel, 7, w, 1, 32),
		block(storagecost.Channel, 7, w, 2, 32),
	}))
	if outside[w] != 0 {
		t.Fatalf("outsideBits[w] = %d, want 0", outside[w])
	}
}

func TestOutsideBitsCountDistinctIndices(t *testing.T) {
	// Two instances of the same ⟨write, index⟩ in the storage: total bits
	// counts both, but ||S(t,w)|| counts the index once (Definition 6).
	w := oracle.WriteID{Client: 5, Seq: 2}
	snap := storagecost.Collect([]storagecost.BlockInfo{
		block(storagecost.BaseObject, 0, w, 1, 40),
		block(storagecost.BaseObject, 1, w, 1, 40),
		block(storagecost.BaseObject, 2, w, 2, 40),
	})
	if snap.TotalBits != 120 {
		t.Fatalf("TotalBits = %d, want 120", snap.TotalBits)
	}
	if got := outsideBits(snap)[w]; got != 80 {
		t.Fatalf("outsideBits = %d, want 80 (distinct indices only)", got)
	}
}

func TestFullAndHeavyLightClassification(t *testing.T) {
	w1 := oracle.WriteID{Client: 1, Seq: 1}
	w2 := oracle.WriteID{Client: 2, Seq: 1}
	w3 := oracle.WriteID{Client: 3, Seq: 1} // outstanding, nothing stored yet
	snap := storagecost.Collect([]storagecost.BlockInfo{
		block(storagecost.BaseObject, 0, w1, 1, 600),
		block(storagecost.BaseObject, 1, w2, 1, 100),
	})
	full := fullObjects(snap, 500)
	if !full[0] || full[1] {
		t.Fatalf("fullObjects(500) = %v", full)
	}
	const dBits, ell = 1000, 500
	light, heavy := splitWrites(snap, []oracle.WriteID{w1, w2, w3}, dBits, ell)
	if !reflect.DeepEqual(heavy, []oracle.WriteID{w1}) {
		t.Fatalf("heavy = %v", heavy)
	}
	if !reflect.DeepEqual(light, []oracle.WriteID{w2, w3}) {
		t.Fatalf("light = %v", light)
	}
}
