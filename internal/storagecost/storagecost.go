// Package storagecost implements the storage-cost model of the paper
// (Definition 2) and the derived quantities the lower-bound proof works with
// (Definition 6, the sets C⁻ℓ, C⁺ℓ and Fℓ, and Observation 1).
//
// Storage cost counts the bits of code blocks stored at base objects, at
// clients, and carried by pending RMWs ("in the channel"); meta-data such as
// timestamps is explicitly not counted. Every block instance is attributed
// to its source ⟨write, block index⟩ via oracle.SourceTag, which is what lets
// the accountant compute per-write contributions ||S(t, w)|| and lets the
// adversary decide which base objects to freeze.
package storagecost

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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

// Reporter is implemented by anything that stores code blocks — base object
// states, pending RMW parameters, client-local buffers. The returned slice
// must describe every block instance currently held.
type Reporter interface {
	StorageBlocks() []BlockInfo
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
	// PerWriteOutsideBits maps a write w performed by client c_j to
	// ||S(t, w)||: the bits of blocks sourced by w in *distinct block
	// numbers*, stored anywhere except at c_j itself (Definition 6).
	PerWriteOutsideBits map[oracle.WriteID]int
}

// DurableBits returns the total bits of the durability axis: log plus
// snapshot bytes on disk.
func (s *Snapshot) DurableBits() int { return s.DurableLogBits + s.DurableSnapshotBits }

// Collect builds a snapshot from reporters. writerOf maps a write to the
// client performing it, which is needed to exclude a writer's own client
// state from its ||S(t,w)|| count; if writerOf is nil, the write's Client
// field is used.
func Collect(reporters []Reporter, writerOf func(oracle.WriteID) int) *Snapshot {
	snap := &Snapshot{
		PerObjectBits:        make(map[int]int),
		PerObjectDurableBits: make(map[int]int),
		PerWriteOutsideBits:  make(map[oracle.WriteID]int),
	}
	// Distinct block numbers per write for the outside-bits computation: the
	// paper's ||S(t,w)|| sums size(i) over the set of indices i present, not
	// over instances.
	outsideIndices := make(map[oracle.WriteID]map[int]int) // write -> index -> bits
	for _, r := range reporters {
		if r == nil {
			continue
		}
		for _, b := range r.StorageBlocks() {
			snap.Blocks = append(snap.Blocks, b)
			// Durable bits live on their own axis: listed in Blocks for
			// inspection, summed into the Durable* fields, but excluded from
			// TotalBits and per-write attribution (Definition 2 counts only
			// the emulation's volatile components).
			if b.Location.Kind == DurableLog || b.Location.Kind == DurableSnapshot {
				if b.Location.Kind == DurableLog {
					snap.DurableLogBits += b.Bits
				} else {
					snap.DurableSnapshotBits += b.Bits
				}
				snap.PerObjectDurableBits[b.Location.ID] += b.Bits
				continue
			}
			snap.TotalBits += b.Bits
			switch b.Location.Kind {
			case BaseObject:
				snap.BaseObjectBits += b.Bits
				snap.PerObjectBits[b.Location.ID] += b.Bits
			case Client:
				snap.ClientBits += b.Bits
			case Channel:
				snap.ChannelBits += b.Bits
			}
			writer := b.Source.Write.Client
			if writerOf != nil {
				writer = writerOf(b.Source.Write)
			}
			ownClient := (b.Location.Kind == Client || b.Location.Kind == Channel) && b.Location.ID == writer
			if !ownClient {
				m, ok := outsideIndices[b.Source.Write]
				if !ok {
					m = make(map[int]int)
					outsideIndices[b.Source.Write] = m
				}
				if b.Bits > m[b.Source.Index] {
					m[b.Source.Index] = b.Bits
				}
			}
		}
	}
	for w, indices := range outsideIndices {
		total := 0
		for _, bits := range indices {
			total += bits
		}
		snap.PerWriteOutsideBits[w] = total
	}
	return snap
}

// Full returns the set Fℓ: the IDs of base objects storing at least ell bits
// of code blocks (the objects the adversary freezes).
func (s *Snapshot) Full(ell int) map[int]bool {
	full := make(map[int]bool)
	for id, bits := range s.PerObjectBits {
		if bits >= ell {
			full[id] = true
		}
	}
	return full
}

// HeavyWrites returns C⁺ℓ restricted to the given outstanding writes: those
// whose outside-client contribution exceeds D-ell bits (Definition 6 and the
// C⁺ definition in Section 4). dBits is D, the value size in bits.
func (s *Snapshot) HeavyWrites(outstanding []oracle.WriteID, dBits, ell int) []oracle.WriteID {
	var heavy []oracle.WriteID
	for _, w := range outstanding {
		if s.PerWriteOutsideBits[w] > dBits-ell {
			heavy = append(heavy, w)
		}
	}
	return heavy
}

// LightWrites returns C⁻ℓ restricted to the given outstanding writes: those
// whose outside-client contribution is at most D-ell bits.
func (s *Snapshot) LightWrites(outstanding []oracle.WriteID, dBits, ell int) []oracle.WriteID {
	var light []oracle.WriteID
	for _, w := range outstanding {
		if s.PerWriteOutsideBits[w] <= dBits-ell {
			light = append(light, w)
		}
	}
	return light
}

// String renders a compact human-readable summary.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "storage: total=%db base=%db client=%db channel=%db", s.TotalBits, s.BaseObjectBits, s.ClientBits, s.ChannelBits)
	if d := s.DurableBits(); d > 0 {
		fmt.Fprintf(&b, " durable=%db(log=%db,snap=%db)", d, s.DurableLogBits, s.DurableSnapshotBits)
	}
	ids := make([]int, 0, len(s.PerObjectBits))
	for id := range s.PerObjectBits {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, " bo%d=%db", id, s.PerObjectBits[id])
	}
	return b.String()
}

// Accountant tracks storage cost over a run: it records samples and maintains
// the maximum observed cost, which is the run's storage cost per
// Definition 2 ("the maximum storage cost at any point t in any run").
// The zero value is ready to use.
type Accountant struct {
	mu sync.Mutex

	samples        int
	maxTotal       int
	maxBase        int
	maxAtSample    int
	lastSnapshot   *Snapshot
	perObjectPeak  map[int]int
	totalsOverTime []int
	keepSeries     bool
}

// NewAccountant returns an accountant. If keepSeries is true it retains the
// full time series of total bits (used by experiments that plot storage over
// time); otherwise it keeps only aggregates.
func NewAccountant(keepSeries bool) *Accountant {
	return &Accountant{perObjectPeak: make(map[int]int), keepSeries: keepSeries}
}

// Observe records a snapshot.
func (a *Accountant) Observe(s *Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.perObjectPeak == nil {
		a.perObjectPeak = make(map[int]int)
	}
	a.samples++
	a.lastSnapshot = s
	if s.TotalBits > a.maxTotal {
		a.maxTotal = s.TotalBits
		a.maxAtSample = a.samples
	}
	if s.BaseObjectBits > a.maxBase {
		a.maxBase = s.BaseObjectBits
	}
	for id, bits := range s.PerObjectBits {
		if bits > a.perObjectPeak[id] {
			a.perObjectPeak[id] = bits
		}
	}
	if a.keepSeries {
		a.totalsOverTime = append(a.totalsOverTime, s.TotalBits)
	}
}

// MaxTotalBits returns the maximum total storage cost observed.
func (a *Accountant) MaxTotalBits() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxTotal
}

// MaxBaseObjectBits returns the maximum bits observed across base objects
// only (the quantity the paper's algorithm bounds refer to).
func (a *Accountant) MaxBaseObjectBits() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxBase
}

// Samples returns the number of snapshots observed.
func (a *Accountant) Samples() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.samples
}

// Last returns the most recent snapshot, or nil if none was observed.
func (a *Accountant) Last() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastSnapshot
}

// PeakPerObject returns a copy of the peak bits observed per base object.
func (a *Accountant) PeakPerObject() map[int]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]int, len(a.perObjectPeak))
	for k, v := range a.perObjectPeak {
		out[k] = v
	}
	return out
}

// Series returns the recorded time series of total bits (empty unless the
// accountant was built with keepSeries=true).
func (a *Accountant) Series() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, len(a.totalsOverTime))
	copy(out, a.totalsOverTime)
	return out
}
