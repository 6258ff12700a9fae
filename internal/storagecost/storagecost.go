// Package storagecost implements the storage-cost model of the paper
// (Definition 2): the cost counts the bits of code blocks stored at base
// objects, at clients, and carried by pending RMWs ("in the channel");
// meta-data such as timestamps is explicitly not counted.
//
// A Snapshot lists every block instance with its location and its source
// ⟨write, block index⟩ (oracle.SourceTag), and sums the bits per location
// kind and per base object. The quantities the lower-bound proof derives from
// the sources — ||S(t, w)|| and the sets C⁻ℓ, C⁺ℓ and Fℓ of Definition 6 —
// belong to their only reader, the adversary (internal/adversary).
package storagecost

import (
	"fmt"

	"spacebounds/internal/oracle"
)

// LocationKind says where a block instance is stored.
type LocationKind int

// Location kinds. Base objects are the shared fault-prone memory; Client
// covers blocks a client holds locally; Channel covers parameters of pending
// RMWs that have been triggered but have not yet taken effect.
// DurableLog and DurableSnapshot are the durability axis: bytes a node's
// write-ahead log and its snapshots occupy on disk. They are deliberately a
// separate axis from the paper's three — Definition 2 counts the bits of an
// *emulation's* code blocks in volatile components, while the journal is an
// engineering artifact below the model — so durable bits never contribute to
// TotalBits or per-write attribution; they are summed into their own fields.
const (
	BaseObject LocationKind = iota + 1
	Client
	Channel
	DurableLog
	DurableSnapshot
)

// String implements fmt.Stringer.
func (k LocationKind) String() string {
	switch k {
	case BaseObject:
		return "base-object"
	case Client:
		return "client"
	case Channel:
		return "channel"
	case DurableLog:
		return "durable-log"
	case DurableSnapshot:
		return "durable-snapshot"
	default:
		return fmt.Sprintf("location(%d)", int(k))
	}
}

// Location identifies a storage component: a base object, a client, or the
// channel (pending RMWs) associated with a client.
type Location struct {
	Kind LocationKind
	ID   int
}

// String implements fmt.Stringer.
func (l Location) String() string { return fmt.Sprintf("%v#%d", l.Kind, l.ID) }

// BlockInfo describes one stored block instance: where it is, which write's
// oracle produced it and with which index, and how many bits it occupies.
type BlockInfo struct {
	Location Location
	Source   oracle.SourceTag
	Bits     int
}

// Snapshot is the storage state of the system at one instant.
type Snapshot struct {
	// Blocks lists every stored block instance.
	Blocks []BlockInfo
	// TotalBits is the storage cost of Definition 2: the sum of block sizes.
	TotalBits int
	// BaseObjectBits / ClientBits / ChannelBits break TotalBits down by kind.
	BaseObjectBits int
	ClientBits     int
	ChannelBits    int
	// PerObjectBits maps base object ID to the bits it stores.
	PerObjectBits map[int]int
	// DurableLogBits / DurableSnapshotBits are the durability axis: bits the
	// write-ahead log and snapshots occupy on disk. They are NOT part of
	// TotalBits — Definition 2 charges the emulation's volatile components
	// only — and carry no per-write attribution.
	DurableLogBits      int
	DurableSnapshotBits int
	// PerObjectDurableBits maps base object ID to its durable (log+snapshot)
	// bits; framing bytes not attributable to one object use ID -1.
	PerObjectDurableBits map[int]int
}

// DurableBits returns the total bits of the durability axis: log plus
// snapshot bytes on disk.
func (s *Snapshot) DurableBits() int { return s.DurableLogBits + s.DurableSnapshotBits }

// Collect builds a snapshot that lists blocks and sums their bits.
func Collect(blocks []BlockInfo) *Snapshot {
	snap := &Snapshot{
		Blocks:               blocks,
		PerObjectBits:        make(map[int]int),
		PerObjectDurableBits: make(map[int]int),
	}
	for _, b := range blocks {
		switch b.Location.Kind {
		case BaseObject:
			snap.BaseObjectBits += b.Bits
			snap.PerObjectBits[b.Location.ID] += b.Bits
		case Client:
			snap.ClientBits += b.Bits
		case Channel:
			snap.ChannelBits += b.Bits
		case DurableLog:
			snap.DurableLogBits += b.Bits
			snap.PerObjectDurableBits[b.Location.ID] += b.Bits
		case DurableSnapshot:
			snap.DurableSnapshotBits += b.Bits
			snap.PerObjectDurableBits[b.Location.ID] += b.Bits
		}
	}
	// Durable bits live on their own axis: listed in Blocks for inspection
	// but not part of TotalBits (Definition 2 counts only the emulation's
	// volatile components).
	snap.TotalBits = snap.BaseObjectBits + snap.ClientBits + snap.ChannelBits
	return snap
}
