package node

import (
	"math/rand"
	"sync"
	"time"

	"spacebounds/internal/shard"
)

// FaultConfig configures opt-in live-mode fault injection: a background
// injector periodically crashes random storage nodes — never more than each
// shard's fault tolerance F at a time, mirroring the model's bound of f
// crashed base objects per register — and, when Downtime is set, restarts
// them after the given outage (fail-recover churn). The zero value disables
// injection.
//
// Fault injection is how a live process rehearses the schedules the
// deterministic simulator (internal/sim) explores exhaustively in controlled
// mode: the simulator proves the algorithms tolerate adversarial fault
// schedules; the injector checks the live engine — batching, queueing,
// storage accounting — under the same kind of churn.
type FaultConfig struct {
	// Interval is the mean time between fault-injection attempts; zero
	// disables the injector.
	Interval time.Duration
	// Downtime is how long a crashed node stays down before it is restarted.
	// Zero means crashed nodes stay down for the life of the process.
	Downtime time.Duration
	// Seed makes the injected fault sequence reproducible (0 = seed 1).
	Seed int64
}

// FaultStats counts injected faults.
type FaultStats struct {
	// Crashes is the number of node crashes injected.
	Crashes int
	// Restarts is the number of crashed nodes brought back.
	Restarts int
	// FailedRestarts is the number of restart attempts that errored. A failed
	// restart does not release the node's crash budget: the node is still
	// down, so freeing its slot would let a later crash push the shard past F
	// and break its quorums. The injector retries after another Downtime, so
	// one stuck node can count several failed attempts.
	FailedRestarts int
	// RetiredOutages is the number of outages released because a
	// reconfiguration retired the node's region mid-outage (the node is gone
	// with the region, so its budget is released without a restart).
	// Crashes == Restarts + RetiredOutages + (nodes currently down), so a
	// process whose counters drift apart is observable instead of silently
	// losing restarts.
	RetiredOutages int
}

// outage is one injected crash that has not been released yet.
type outage struct {
	since time.Time
	node  int // global object ID
	shard string
}

// injectorState is the injection loop's working state, kept outside the
// goroutine so the tick logic is unit-testable against crafted topologies.
type injectorState struct {
	rng    *rand.Rand
	down   []outage
	downIn map[string]int // shard name -> nodes currently down
}

func newInjectorState(seed int64) *injectorState {
	if seed == 0 {
		seed = 1
	}
	return &injectorState{
		rng:    rand.New(rand.NewSource(seed)),
		downIn: make(map[string]int),
	}
}

func (st *injectorState) isDown(node int) bool {
	for _, o := range st.down {
		if o.node == node {
			return true
		}
	}
	return false
}

// injector is a node's background fault process.
type injector struct {
	set *shard.Set
	cfg FaultConfig

	stop chan struct{}
	wg   sync.WaitGroup

	// restartHook, when non-nil, replaces the cluster restart call. Tests
	// inject restart failures that are not caused by region retirement to pin
	// the crash-budget accounting.
	restartHook func(node int) error

	mu    sync.Mutex
	stats FaultStats
}

// Stats returns a copy of the counters.
func (fi *injector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

// restart brings one node back, via the test hook when one is installed.
func (fi *injector) restart(node int) error {
	if fi.restartHook != nil {
		return fi.restartHook(node)
	}
	return fi.set.Cluster().RestartObject(node)
}

// tick runs one injection step: release outages whose region was retired,
// restart nodes whose downtime elapsed, rebuild the per-shard budget, and
// attempt one crash. The shard list is re-read every tick so the injector
// follows reconfiguration (new regions become targets, retired regions stop
// being hit).
func (fi *injector) tick(st *injectorState, now time.Time) {
	shards := fi.set.Shards()
	live := make(map[string]bool, len(shards))
	for _, sh := range shards {
		live[sh.Name] = true
	}

	// A retired region takes its nodes with it: outages whose shard left the
	// table are released without a restart, and their budget goes with the
	// region. This is also what keeps downIn from accumulating entries for
	// retired names under churn — the budget map is rebuilt below from the
	// outages that remain, all of which name live shards.
	kept := st.down[:0]
	for _, o := range st.down {
		if !live[o.shard] {
			fi.mu.Lock()
			fi.stats.RetiredOutages++
			fi.mu.Unlock()
			continue
		}
		kept = append(kept, o)
	}
	st.down = kept

	// Restart nodes whose downtime has elapsed. A failed restart of a node
	// whose region is still live keeps the outage (and its crash budget):
	// the node is still down, so releasing the slot would let the injector
	// exceed F and break the shard's quorums. The attempt is retried after
	// another Downtime.
	if fi.cfg.Downtime > 0 {
		kept = st.down[:0]
		for i := range st.down {
			o := st.down[i]
			if now.Sub(o.since) < fi.cfg.Downtime {
				kept = append(kept, o)
				continue
			}
			err := fi.restart(o.node)
			fi.mu.Lock()
			if err == nil {
				fi.stats.Restarts++
			} else {
				fi.stats.FailedRestarts++
			}
			fi.mu.Unlock()
			if err == nil {
				continue
			}
			o.since = now
			kept = append(kept, o)
		}
		st.down = kept
	}

	// downIn is derived state — outages grouped by shard. Rebuilding it from
	// the surviving outages keeps it exact through retirements and failed
	// restarts alike.
	for name := range st.downIn {
		delete(st.downIn, name)
	}
	for _, o := range st.down {
		st.downIn[o.shard]++
	}

	// One crash attempt: a random node of a random shard, only if the shard
	// still has crash budget (down < F). Mid-reconfiguration the table can
	// transiently expose no routable shard; skip the tick rather than index
	// into an empty list.
	if len(shards) == 0 {
		return
	}
	sh := shards[st.rng.Intn(len(shards))]
	if st.downIn[sh.Name] >= sh.Reg.Config().F {
		return
	}
	node := sh.Base + st.rng.Intn(sh.Span)
	if st.isDown(node) {
		return
	}
	if err := fi.set.Cluster().CrashObject(node); err != nil {
		return
	}
	st.down = append(st.down, outage{since: now, node: node, shard: sh.Name})
	st.downIn[sh.Name]++
	fi.mu.Lock()
	fi.stats.Crashes++
	fi.mu.Unlock()
}

// startInjector launches the injection loop against the shard set.
func startInjector(set *shard.Set, cfg FaultConfig) *injector {
	fi := &injector{set: set, cfg: cfg, stop: make(chan struct{})}
	fi.wg.Add(1)
	go func() {
		defer fi.wg.Done()
		st := newInjectorState(cfg.Seed)
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-fi.stop:
				return
			case now := <-ticker.C:
				fi.tick(st, now)
			}
		}
	}()
	return fi
}

// halt stops the injection loop and waits for it. Node.Close calls it once.
func (fi *injector) halt() {
	close(fi.stop)
	fi.wg.Wait()
}
