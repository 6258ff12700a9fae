package workload

import (
	"fmt"
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
	// share one register and therefore one history. The names are the ones
	// the simulator checks (Router.CheckedNames): every leaf shard, its entry
	// stitched across its lineage so CheckRegularity spans the epochs, and
	// every merge loser, whose history ends at the merge.
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

// count adds one operation's end to the result: an operation that did not
// complete, halted or failed, is an error; a completed one counts on the
// shard that answered it.
func (r *ShardedResult) count(e End) {
	switch {
	case e.Outcome != Completed && e.Kind == history.Read:
		r.ReadErrors++
	case e.Outcome != Completed:
		r.WriteErrors++
	case e.Kind == history.Read:
		r.CompletedReads++
		r.PerShardOps[e.Shard.Name]++
	default:
		r.CompletedWrites++
		r.PerShardOps[e.Shard.Name]++
	}
}

// RunSharded executes the workload against the shard set on its live path:
// each client runs the client Program in its own goroutine on the set's live
// engine, and operations on different shards share no lock but the one that
// counts their ends. Client IDs start at 1. A closed-loop client is
// Program.Run; an open-loop client draws its operations the same way and
// dispatches each through the program's one-operation function under a
// virtual client ID. Scheduled reconfiguration moves fire as their
// thresholds are crossed, with the workload running throughout. An
// operation that did not complete counts in WriteErrors or ReadErrors: a
// live run closes nothing mid-run, so none of them merely halted.
func RunSharded(set *shard.Set, spec ShardedSpec) (*ShardedResult, error) {
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	var recs *history.Recorders
	if spec.RecordHistory {
		var clock atomic.Int64
		recs = history.NewRecorders(func() int64 { return clock.Add(1) })
	}

	var completed atomic.Int64
	workloadDone := make(chan struct{})
	reconfigDone := make(chan []AppliedReconfig, 1)
	if len(spec.Reconfig) > 0 {
		go func() {
			reconfigDone <- runReconfigSchedule(spec, &completed, workloadDone)
		}()
	}

	keys := make([]string, spec.Keys)
	for i := range keys {
		keys[i] = KeyName(i)
	}
	res := &ShardedResult{PerShardOps: make(map[string]int)}
	var mu sync.Mutex
	prog := &Program{Router: set.Router(), Recs: recs, Keys: keys, ZipfS: spec.ZipfS, ReadFraction: spec.ReadFraction,
		Ended: func(e End) {
			if e.Outcome == Completed {
				completed.Add(1)
			}
			mu.Lock()
			res.count(e)
			mu.Unlock()
		}}
	eng := live{set}
	var wg sync.WaitGroup
	for cl := 1; cl <= spec.Clients; cl++ {
		seed := spec.Seed + int64(cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if spec.ArrivalRate <= 0 {
				prog.Run(eng, cl, spec.OpsPerClient, seed)
				return
			}
			// Open loop: dispatch on the arrival schedule without waiting
			// for completion. Every in-flight operation runs under its own
			// virtual client ID (the (cl, op) pair flattened), keeping write
			// timestamps collision-free even though one logical client now
			// has many outstanding operations.
			interval := time.Duration(float64(time.Second) / spec.ArrivalRate)
			draw := prog.draws(seed)
			var inflight sync.WaitGroup
			next := time.Now()
			for op := 0; op < spec.OpsPerClient; op++ {
				key, read := draw()
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					prog.runOp(eng, cl*spec.OpsPerClient+op, op, key, read, 1)
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

	if len(spec.Reconfig) > 0 {
		res.Reconfigs = <-reconfigDone
		res.ReconfigStats = spec.Coordinator.Stats()
	}
	if spec.RecordHistory {
		res.Histories = make(map[string]*history.History)
		for _, name := range set.Router().CheckedNames() {
			v0 := value.Zero(set.Shard(name).Reg.Config().DataLen)
			res.Histories[name] = recs.Stitch(v0, set.Lineage(name))
		}
	}
	return res, nil
}
