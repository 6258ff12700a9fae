package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spacebounds/internal/history"
	"spacebounds/internal/reconfig"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// ShardedSpec describes a multi-key workload over a shard set: concurrent
// clients issue reads and writes against a keyspace whose keys hash onto the
// shards, with optionally Zipf-skewed key popularity (hot keys model the
// heavy-traffic regime the ROADMAP targets; uniform keys model a balanced
// cache). Writes by one client use globally unique values so the per-shard
// histories stay checkable against the paper's consistency conditions.
type ShardedSpec struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// OpsPerClient is the number of operations each client performs.
	OpsPerClient int
	// ReadFraction is the probability an operation is a read (0 = write-only).
	ReadFraction float64
	// Keys is the number of distinct keys ("key-0" … "key-N-1"; default 16).
	Keys int
	// ZipfS is the Zipf skew exponent; values > 1 skew key popularity toward
	// low-numbered keys, anything else means uniform. (math/rand's Zipf
	// generator requires s > 1.)
	ZipfS float64
	// Seed makes the key and read/write choices reproducible.
	Seed int64
	// RecordHistory records one operation history per shard and enables
	// CheckRegularity on the result. Histories are stitched across
	// reconfiguration epochs: a migrated shard's history is checked together
	// with its ancestors'.
	RecordHistory bool
	// ArrivalRate, when positive, switches every client from a closed loop
	// (issue, wait, issue) to an open loop: operations are dispatched at the
	// given rate in operations per second per client, without waiting for
	// earlier operations to finish. Each in-flight operation runs under its
	// own virtual client ID, so concurrent writes never share a timestamp
	// client component. Open-loop arrivals are what pile concurrent
	// operations onto a shard and give the batched quorum engine something
	// to coalesce.
	ArrivalRate float64
	// Reconfig schedules live reconfiguration moves at completed-operation
	// thresholds, so a run checks its histories across a resharding under
	// load (e.g. a split at the half-way mark under open-loop arrivals).
	Reconfig []ReconfigMove
	// Coordinator is the set's reconfiguration coordinator, which the
	// scheduled moves go through; required when Reconfig is non-empty. A set
	// has one coordinator per process — the workload does not build another.
	Coordinator *reconfig.Coordinator
}

// ReconfigMove schedules one live reconfiguration move.
type ReconfigMove struct {
	// AfterOps triggers the move once this many operations have completed.
	AfterOps int
	reconfig.Move
}

// Validate checks the spec and fills defaults.
func (s ShardedSpec) Validate() (ShardedSpec, error) {
	if s.Clients < 0 || s.OpsPerClient < 0 || s.Keys < 0 {
		return s, fmt.Errorf("workload: negative counts in sharded spec %+v", s)
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return s, fmt.Errorf("workload: read fraction %v outside [0,1]", s.ReadFraction)
	}
	if s.ArrivalRate < 0 {
		return s, fmt.Errorf("workload: negative arrival rate %v", s.ArrivalRate)
	}
	for i, m := range s.Reconfig {
		if err := m.Validate(); err != nil {
			return s, fmt.Errorf("workload: reconfig move %d: %w", i, err)
		}
	}
	if len(s.Reconfig) > 0 && s.Coordinator == nil {
		return s, fmt.Errorf("workload: a reconfig schedule needs the set's coordinator")
	}
	if s.Keys == 0 {
		s.Keys = 16
	}
	return s, nil
}

// AppliedReconfig records one reconfiguration move applied mid-workload.
type AppliedReconfig struct {
	// Move is the scheduled move.
	Move ReconfigMove
	// Successors are the shards the move installed.
	Successors []string
	// Err is the migration error, if any ("" on success).
	Err string
}

// ShardedResult is the outcome of a sharded workload run.
type ShardedResult struct {
	// CompletedWrites / CompletedReads count successful operations.
	CompletedWrites int
	CompletedReads  int
	// WriteErrors / ReadErrors count failed operations.
	WriteErrors int
	ReadErrors  int
	// PerShardOps counts completed operations per shard name; skewed
	// workloads show up as imbalance here. Operations are attributed to the
	// shard they actually executed on, which during a migration can be a
	// successor of the shard the key hashed to at spec time.
	PerShardOps map[string]int
	// Histories maps shard names to their recorded operation history
	// (only when RecordHistory was set). Keys hashing to the same shard
	// share one register and therefore one history. For shards installed by
	// reconfiguration the entry is the stitched lineage history: the
	// ancestors' operations merged in, so CheckRegularity spans the epochs.
	Histories map[string]*history.History
	// Reconfigs records the applied reconfiguration schedule.
	Reconfigs []AppliedReconfig
	// ReconfigStats aggregates the reconfiguration subsystem counters (zero
	// when no moves were scheduled).
	ReconfigStats reconfig.Stats
}

// CheckRegularity verifies every recorded per-shard history against strong
// regularity (the consistency condition the paper's adaptive algorithm
// guarantees). It is only meaningful when every shard runs a regular
// emulation — safe-register shards may legitimately fail it. Histories of
// reconfigured shards are stitched across epochs, so the check spans live
// migrations end to end.
func (r *ShardedResult) CheckRegularity() error {
	names := make([]string, 0, len(r.Histories))
	for name := range r.Histories {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := history.CheckStrongRegularity(r.Histories[name]); err != nil {
			return fmt.Errorf("shard %q: %w", name, err)
		}
	}
	return nil
}

// KeyName returns the i-th key of the sharded workload's keyspace.
func KeyName(i int) string { return fmt.Sprintf("key-%d", i) }

// tally accumulates one logical client's results. Open-loop clients complete
// operations from many goroutines, so updates are mutex-guarded.
type tally struct {
	mu                          sync.Mutex
	writes, reads, werrs, rerrs int
	perShard                    map[string]int
}

// recorderSet lazily creates one history recorder per shard name; successors
// installed by reconfiguration mid-run get theirs on first use. All recorders
// share one logical clock: cross-epoch stitching merges histories from
// different recorders, which is only sound if an operation that returned
// before another was invoked carries the smaller timestamp regardless of
// which recorder stamped it.
type recorderSet struct {
	mu    sync.Mutex
	clock atomic.Int64
	recs  map[string]*history.Recorder
}

func (rs *recorderSet) forShard(name string) *history.Recorder {
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.recs[name]
	if !ok {
		rec = history.NewRecorder()
		rec.SetClock(func() int64 { return rs.clock.Add(1) })
		rs.recs[name] = rec
	}
	return rec
}

// invoked stamps an operation's invocation. It is taken before the route is
// acquired — the operation is invoked when its caller asks, not once its route
// is pinned: a read that pins a route, is descheduled across a split and then
// reads the drained register has been running all along, and stamped any
// later it would seem to skip the successors' first writes.
func (rs *recorderSet) invoked() int64 {
	if rs == nil {
		return 0
	}
	return rs.clock.Add(1)
}

func (rs *recorderSet) get(name string) *history.Recorder {
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.recs[name]
}

// runShardedOp performs one read or write against the set and records it in
// the history recorder and the tally. The route is acquired first so the
// operation is attributed (and its history recorded) on the shard it actually
// runs on — during a migration that is the current epoch's target, and reads
// transparently consult both epochs. Writes derive a globally unique value
// from (client, seq).
func runShardedOp(set *shard.Set, recs *recorderSet, t *tally, completed *atomic.Int64, client int, key string, isRead bool, seq int) {
	invoked := recs.invoked()
	if isRead {
		ref, fb, err := set.AcquireRead(client, key)
		if err != nil {
			t.mu.Lock()
			t.rerrs++
			t.mu.Unlock()
			return
		}
		// A dual-epoch read is recorded in the history of the register that
		// answered it: invocations are recorded against both epochs and the
		// loser stays incomplete (incomplete reads constrain no checker).
		// This matters for merges — a fallback read answered by the value-
		// ordering loser belongs to the pruned branch's history, not to the
		// successor's stitched lineage.
		name := ref.Shard().Name
		rec := recs.forShard(name)
		var hop, fbOp *history.Op
		var fbRec *history.Recorder
		if rec != nil {
			hop = rec.BeginRead(client)
			hop.Invoked = invoked
		}
		if fb != nil && recs != nil {
			fbRec = recs.forShard(fb.Shard().Name)
			if fbRec != nil {
				fbOp = fbRec.BeginRead(client)
				fbOp.Invoked = invoked
			}
		}
		v, fell, err := set.ReadRefFell(client, ref, fb)
		set.ReleaseRead(ref, fb, client)
		if err != nil {
			t.mu.Lock()
			t.rerrs++
			t.mu.Unlock()
			return
		}
		if fell {
			name = fb.Shard().Name
			if fbRec != nil {
				fbRec.EndRead(fbOp, v)
			}
		} else if rec != nil {
			rec.EndRead(hop, v)
		}
		completed.Add(1)
		t.mu.Lock()
		t.reads++
		t.perShard[name]++
		t.mu.Unlock()
		return
	}
	ref, err := set.AcquireWrite(client, key)
	if err != nil {
		t.mu.Lock()
		t.werrs++
		t.mu.Unlock()
		return
	}
	name := ref.Shard().Name
	v := value.Sequenced(client, seq, ref.Shard().Reg.Config().DataLen)
	rec := recs.forShard(name)
	var hop *history.Op
	if rec != nil {
		hop = rec.BeginWrite(client, v)
		hop.Invoked = invoked
	}
	err = set.WriteRef(client, ref, v)
	set.ReleaseWrite(ref, client)
	if err != nil {
		t.mu.Lock()
		t.werrs++
		t.mu.Unlock()
		return
	}
	if rec != nil {
		rec.EndWrite(hop)
	}
	completed.Add(1)
	t.mu.Lock()
	t.writes++
	t.perShard[name]++
	t.mu.Unlock()
}

// runReconfigSchedule fires the spec's moves as their completed-op thresholds
// are crossed. Moves whose thresholds the workload never reaches are applied
// after it ends (on a quiet set), so the schedule always completes. It
// returns the applied moves.
func runReconfigSchedule(spec ShardedSpec, completed *atomic.Int64, workloadDone <-chan struct{}) []AppliedReconfig {
	applied := make([]AppliedReconfig, 0, len(spec.Reconfig))
	for _, m := range spec.Reconfig {
		for completed.Load() < int64(m.AfterOps) {
			select {
			case <-workloadDone:
			case <-time.After(100 * time.Microsecond):
				continue
			}
			break
		}
		ev, err := spec.Coordinator.ApplyLive(m.Move)
		ar := AppliedReconfig{Move: m, Successors: ev.Successors}
		if err != nil {
			ar.Err = err.Error()
		}
		applied = append(applied, ar)
	}
	return applied
}

// RunSharded executes the workload against the shard set on its live path:
// every client runs in its own goroutine and operations on different shards
// proceed without shared locks. Client IDs start at 1. Scheduled
// reconfiguration moves fire as their thresholds are crossed, with the
// workload running throughout.
func RunSharded(set *shard.Set, spec ShardedSpec) (*ShardedResult, error) {
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	var recs *recorderSet
	if spec.RecordHistory {
		recs = &recorderSet{recs: make(map[string]*history.Recorder)}
		for _, sh := range set.Shards() {
			recs.forShard(sh.Name)
		}
	}

	var completed atomic.Int64
	workloadDone := make(chan struct{})
	reconfigDone := make(chan []AppliedReconfig, 1)
	if len(spec.Reconfig) > 0 {
		go func() {
			reconfigDone <- runReconfigSchedule(spec, &completed, workloadDone)
		}()
	}

	tallies := make([]tally, spec.Clients)
	var wg sync.WaitGroup
	for cl := 1; cl <= spec.Clients; cl++ {
		cl := cl
		t := &tallies[cl-1]
		t.perShard = make(map[string]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.Seed + int64(cl)))
			var zipf *rand.Zipf
			if spec.ZipfS > 1 && spec.Keys > 1 {
				zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Keys-1))
			}
			var interval time.Duration
			if spec.ArrivalRate > 0 {
				interval = time.Duration(float64(time.Second) / spec.ArrivalRate)
			}
			var inflight sync.WaitGroup
			next := time.Now()
			seq := 0
			for op := 0; op < spec.OpsPerClient; op++ {
				var idx int
				if zipf != nil {
					idx = int(zipf.Uint64())
				} else {
					idx = rng.Intn(spec.Keys)
				}
				key := KeyName(idx)
				isRead := rng.Float64() < spec.ReadFraction
				if spec.ArrivalRate <= 0 {
					// Closed loop: issue, wait, issue.
					seq++
					runShardedOp(set, recs, t, &completed, cl, key, isRead, seq)
					continue
				}
				// Open loop: dispatch on the arrival schedule without waiting
				// for completion. Every in-flight operation runs under its own
				// virtual client ID (the (cl, op) pair flattened), keeping
				// write timestamps collision-free even though one logical
				// client now has many outstanding operations.
				vclient := cl*spec.OpsPerClient + op
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					runShardedOp(set, recs, t, &completed, vclient, key, isRead, 1)
				}()
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
			inflight.Wait()
		}()
	}
	wg.Wait()
	close(workloadDone)

	res := &ShardedResult{PerShardOps: make(map[string]int)}
	if len(spec.Reconfig) > 0 {
		res.Reconfigs = <-reconfigDone
		res.ReconfigStats = spec.Coordinator.Stats()
	}
	for i := range tallies {
		t := &tallies[i]
		res.CompletedWrites += t.writes
		res.CompletedReads += t.reads
		res.WriteErrors += t.werrs
		res.ReadErrors += t.rerrs
		for name, n := range t.perShard {
			res.PerShardOps[name] += n
		}
	}
	if spec.RecordHistory {
		// Stitch every surviving shard's lineage: the shard's own recorder
		// plus its migration ancestors', merged in invocation order.
		res.Histories = make(map[string]*history.History)
		for _, sh := range set.Shards() {
			v0 := value.Zero(sh.Reg.Config().DataLen)
			var chain []*history.History
			for _, ancestor := range set.Lineage(sh.Name) {
				if rec := recs.get(ancestor); rec != nil {
					chain = append(chain, rec.History(v0))
				}
			}
			res.Histories[sh.Name] = history.Merge(v0, chain...)
		}
	}
	return res, nil
}
