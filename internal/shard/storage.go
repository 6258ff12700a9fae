package shard

// Storage is one storage sample of a set, attributed to its shards: the
// paper's storage cost (Definition 2) and, on its own axis, the bytes the
// write-ahead log and its snapshots occupy on disk. Every number comes from
// the same sample. The totals are the cluster's own, not sums of the parts,
// so Bits == Σ Shards[].Bits is a check: it holds exactly when every base
// object belongs to a region. Durable == Σ Shards[].Durable + Ledger holds by
// construction, Ledger being the remainder.
type Storage struct {
	// Bits is the code-block bits held by all base objects, meta-data
	// excluded: the storage cost of Definition 2.
	Bits int
	// Durable is the bits the write-ahead log and its snapshots occupy (zero
	// without a journal). They never count toward Bits.
	Durable int
	// Ledger is the durable bits no shard owns: reconfiguration move records
	// plus per-file framing and snapshot overhead.
	Ledger int
	// Shards maps the name of every region ever built to its share, including
	// a successor that is built but not yet routed and a retiring region's
	// last bits; a retired shard that holds nothing is omitted.
	Shards map[string]ShardStorage
}

// ShardStorage is one shard's share of a Storage sample.
type ShardStorage struct {
	// Bits is the base-object bits of the shard's region, the per-shard
	// storage cost Theorem 2 bounds by O(min(f, c)·D).
	Bits int
	// Durable is the bits its objects' journal records and snapshot entries
	// occupy.
	Durable int
}

// Storage samples the cluster once and attributes the sample to every region
// the set has ever built. Regions are disjoint for the life of the cluster,
// so the attribution is exact even while a reconfiguration is mid-flight.
func (s *Set) Storage() Storage {
	s.rmu.Lock()
	snap := s.cluster.SampleStorage()
	regions := s.regions
	s.rmu.Unlock()
	st := Storage{Bits: snap.BaseObjectBits, Durable: snap.DurableBits(), Shards: make(map[string]ShardStorage, len(regions))}
	attributed := 0 // durable bits that some region owns
	// One router lock for the whole walk: every region's route state is
	// read from the same table.
	s.router.mu.Lock()
	for _, sh := range regions {
		var part ShardStorage
		for obj := sh.Base; obj < sh.Base+sh.Span; obj++ {
			part.Bits += snap.PerObjectBits[obj]
			part.Durable += snap.PerObjectDurableBits[obj]
		}
		attributed += part.Durable
		if e := s.router.byName[sh.Name]; part != (ShardStorage{}) || e == nil || e.state != RouteRetired {
			st.Shards[sh.Name] = part
		}
	}
	s.router.mu.Unlock()
	st.Ledger = st.Durable - attributed
	return st
}
