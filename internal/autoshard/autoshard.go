// Package autoshard is the self-driving topology controller: a control loop
// that watches per-shard load signals and steers the reconfiguration
// subsystem — split shards that run hot, merge shards that run cold, drain
// shards whose nodes are slow — without an operator in the loop.
//
// The package splits the controller into three pieces so each is testable on
// its own:
//
//   - Planner is the pure decision procedure: feed it one Sample per live
//     shard per tick and it emits at most one Plan. It never touches the
//     store. All the control-theory guardrails live here: separate up/down
//     thresholds with a neutral band between them (hysteresis), a sustain
//     window (a shard must stay hot or cold for SustainTicks consecutive
//     ticks before it is acted on, so flapping load plans nothing), a
//     cooldown after every resolved move, and a single move in flight at a
//     time.
//   - Driver owns the clock: it samples, ticks the planner, and pushes plans
//     through the reconfiguration coordinator. Backpressure from the
//     coordinator is not an error: ErrMoveInFlight drops the plan (someone
//     else is reconfiguring — the next tick re-observes the world), and an
//     interrupted move is re-driven from the ledger on later ticks rather
//     than re-planned.
//   - RegistrySampler (sampler.go) derives Samples from the metrics registry
//     the store already exports, so enabling the controller needs no second
//     instrumentation path.
package autoshard

import (
	"fmt"
	"sort"

	"spacebounds/internal/reconfig"
)

// Sample is one shard's control signals for one tick. Rates are per-tick
// deltas, not per-second rates: the planner compares them against Config
// thresholds in the same unit, so the tick interval cancels out.
type Sample struct {
	// Shard is the shard (route) name the signals belong to.
	Shard string
	// Ops is the number of operations (quorum rounds) the shard completed
	// since the previous tick.
	Ops float64
	// LatencyP99 is the 99th-percentile quorum-round latency over the tick
	// window, in seconds (0 when unknown).
	LatencyP99 float64
	// QueueDepth is the mean batch-lane occupancy over the tick window (0
	// when unknown or batching is disabled).
	QueueDepth float64
}

// Config tunes the planner. The zero value is not usable: at least HotOps or
// ColdOps must distinguish hot from cold; withDefaults fills the rest.
type Config struct {
	// HotOps is the per-tick operation count at or above which a shard runs
	// hot. 0 disables rate-based heat.
	HotOps float64
	// ColdOps is the per-tick operation count at or below which a shard runs
	// cold. It must be strictly below HotOps when both are set — the gap is
	// the hysteresis band in which a shard is neither, and both streaks
	// reset.
	ColdOps float64
	// HotLatency is the p99 quorum-round latency (seconds) at or above which
	// a shard runs hot regardless of rate. A shard that is persistently hot
	// by latency alone — slow nodes, not load — is drained onto fresh nodes
	// instead of split. 0 disables latency-based heat.
	HotLatency float64
	// HotQueue is the batch queue depth at or above which a shard runs hot.
	// 0 disables queue-based heat.
	HotQueue float64
	// SustainTicks is how many consecutive hot (or cold) ticks a shard must
	// accumulate before it is acted on (default 3).
	SustainTicks int
	// CooldownTicks is how many ticks after a resolved move the planner
	// refuses to plan again (default 5), so the topology settles and the
	// signals re-form before the next decision.
	CooldownTicks int
	// MaxMoves caps the total number of plans the planner will ever emit
	// (0 = unlimited). A bound here bounds the damage of a bad threshold.
	MaxMoves int
	// MinShards refuses merges that would shrink the topology below this
	// many shards (default 1).
	MinShards int
	// MaxShards refuses splits that would grow the topology above this many
	// shards (0 = unlimited).
	MaxShards int
}

// withDefaults fills the zero fields with the standard guardrails.
func (c Config) withDefaults() Config {
	if c.SustainTicks <= 0 {
		c.SustainTicks = 3
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 5
	}
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	return c
}

// validate rejects configurations whose thresholds cannot hysterese.
func (c Config) validate() error {
	if c.HotOps <= 0 && c.HotLatency <= 0 && c.HotQueue <= 0 && c.ColdOps <= 0 {
		return fmt.Errorf("autoshard: config enables no signal (set HotOps, HotLatency, HotQueue or ColdOps)")
	}
	if c.HotOps > 0 && c.ColdOps >= c.HotOps {
		return fmt.Errorf("autoshard: ColdOps (%v) must be below HotOps (%v); the gap is the hysteresis band", c.ColdOps, c.HotOps)
	}
	return nil
}

// Plan is one planned topology move and the signal that justified it.
type Plan struct {
	// Move is the reconfiguration move to apply.
	Move reconfig.Move
	// Reason is a human-readable one-liner for logs and failure artifacts.
	Reason string
}

// Stats are the planner's cumulative counters plus its current view.
type Stats struct {
	// Ticks counts Tick calls.
	Ticks int64
	// Plans counts emitted plans; Splits/Merges/Drains break them down.
	Plans, Splits, Merges, Drains int64
	// Applied, Dropped and Resumed count plan resolutions: applied cleanly,
	// dropped (backpressure or abort), and completed by re-driving an
	// interrupted move from the ledger.
	Applied, Dropped, Resumed int64
	// HotShards and ColdShards are the shards currently carrying a nonzero
	// hot (resp. cold) streak, as of the last tick.
	HotShards, ColdShards int
}

// streak is one shard's consecutive-classification state.
type streak struct {
	hot, cold int
	// latencyOnly records whether every hot tick of the current streak was
	// caused by latency alone — the signature of slow nodes rather than
	// load, answered by a drain rather than a split.
	latencyOnly bool
}

// Planner is the pure decision procedure. It is not safe for concurrent use;
// the Driver (or a simulator task) owns it.
type Planner struct {
	cfg      Config
	streaks  map[string]*streak
	cooldown int
	awaiting bool
	stats    Stats
}

// NewPlanner builds a planner; the error names the config mistake.
func NewPlanner(cfg Config) (*Planner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Planner{cfg: cfg, streaks: make(map[string]*streak)}, nil
}

// Stats returns the planner's counters and current hot/cold census.
func (p *Planner) Stats() Stats { return p.stats }

// NoteResolved tells the planner the outcome of the last emitted plan:
// applied (ok) or dropped (backpressure, abort, rejection). Either way the
// cooldown starts — even a dropped plan means the topology or its signals
// were just in flux.
func (p *Planner) NoteResolved(ok bool) {
	if !p.awaiting {
		return
	}
	p.awaiting = false
	p.cooldown = p.cfg.CooldownTicks
	if ok {
		p.stats.Applied++
	} else {
		p.stats.Dropped++
	}
}

// NoteResumed records a plan completed by re-driving its interrupted move
// from the ledger; it resolves like a success.
func (p *Planner) NoteResumed() {
	if !p.awaiting {
		return
	}
	p.awaiting = false
	p.cooldown = p.cfg.CooldownTicks
	p.stats.Resumed++
}

// classify buckets one sample, returning hot, cold, and whether the heat was
// latency-only.
func (p *Planner) classify(s Sample) (hot, cold, latencyOnly bool) {
	hotRate := p.cfg.HotOps > 0 && s.Ops >= p.cfg.HotOps
	hotQueue := p.cfg.HotQueue > 0 && s.QueueDepth >= p.cfg.HotQueue
	hotLat := p.cfg.HotLatency > 0 && s.LatencyP99 >= p.cfg.HotLatency
	hot = hotRate || hotQueue || hotLat
	if hot {
		return true, false, hotLat && !hotRate && !hotQueue
	}
	// A shard is cold only on the rate axis, and only below the low
	// threshold; the band between ColdOps and HotOps is neutral.
	return false, s.Ops <= p.cfg.ColdOps, false
}

// Tick feeds the planner one sample per live shard and returns at most one
// plan. The boolean reports whether a plan was emitted; an emitted plan puts
// the planner in the awaiting state until NoteResolved/NoteResumed.
func (p *Planner) Tick(samples []Sample) (Plan, bool) {
	p.stats.Ticks++

	// Update streaks, dropping state for shards that left the topology.
	seen := make(map[string]bool, len(samples))
	hotCount, coldCount := 0, 0
	for _, s := range samples {
		seen[s.Shard] = true
		st := p.streaks[s.Shard]
		if st == nil {
			st = &streak{}
			p.streaks[s.Shard] = st
		}
		hot, cold, latOnly := p.classify(s)
		switch {
		case hot:
			if st.hot == 0 {
				st.latencyOnly = true
			}
			st.latencyOnly = st.latencyOnly && latOnly
			st.hot++
			st.cold = 0
		case cold:
			st.cold++
			st.hot = 0
		default:
			// Neutral band: hysteresis resets both streaks.
			st.hot, st.cold = 0, 0
		}
		if st.hot > 0 {
			hotCount++
		}
		if st.cold > 0 {
			coldCount++
		}
	}
	for name := range p.streaks {
		if !seen[name] {
			delete(p.streaks, name)
		}
	}
	p.stats.HotShards, p.stats.ColdShards = hotCount, coldCount

	// Rate limiting: one move in flight, then a cooldown, then a lifetime
	// budget.
	if p.awaiting || p.cooldown > 0 {
		if !p.awaiting {
			p.cooldown--
		}
		return Plan{}, false
	}
	if p.cfg.MaxMoves > 0 && p.stats.Plans >= int64(p.cfg.MaxMoves) {
		return Plan{}, false
	}

	if pl, ok := p.planHot(samples); ok {
		return p.emit(pl), true
	}
	if pl, ok := p.planCold(samples); ok {
		return p.emit(pl), true
	}
	return Plan{}, false
}

// planHot picks the hottest sustained-hot shard: drain it if its heat is
// latency-only (slow nodes), otherwise split it (load). Splits respect
// MaxShards; drains keep the shard count and are always allowed.
func (p *Planner) planHot(samples []Sample) (Plan, bool) {
	var cands []Sample
	for _, s := range samples {
		if st := p.streaks[s.Shard]; st != nil && st.hot >= p.cfg.SustainTicks {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return Plan{}, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Ops != cands[j].Ops {
			return cands[i].Ops > cands[j].Ops
		}
		return cands[i].Shard < cands[j].Shard
	})
	for _, s := range cands {
		st := p.streaks[s.Shard]
		if st.latencyOnly {
			return Plan{
				Move:   reconfig.Move{Kind: reconfig.MoveDrain, Shard: s.Shard},
				Reason: fmt.Sprintf("shard %s hot by latency alone for %d ticks (p99 %.4fs): draining onto fresh nodes", s.Shard, st.hot, s.LatencyP99),
			}, true
		}
		if p.cfg.MaxShards > 0 && len(samples) >= p.cfg.MaxShards {
			continue // at the topology cap; a split would blow it
		}
		return Plan{
			Move:   reconfig.Move{Kind: reconfig.MoveSplit, Shard: s.Shard},
			Reason: fmt.Sprintf("shard %s hot for %d ticks (%.0f ops/tick): splitting", s.Shard, st.hot, s.Ops),
		}, true
	}
	return Plan{}, false
}

// planCold merges the two coldest sustained-cold shards, topology floor
// permitting.
func (p *Planner) planCold(samples []Sample) (Plan, bool) {
	if len(samples)-1 < p.cfg.MinShards {
		return Plan{}, false
	}
	var cands []Sample
	for _, s := range samples {
		if st := p.streaks[s.Shard]; st != nil && st.cold >= p.cfg.SustainTicks {
			cands = append(cands, s)
		}
	}
	if len(cands) < 2 {
		return Plan{}, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Ops != cands[j].Ops {
			return cands[i].Ops < cands[j].Ops
		}
		return cands[i].Shard < cands[j].Shard
	})
	a, b := cands[0], cands[1]
	return Plan{
		Move:   reconfig.Move{Kind: reconfig.MoveMerge, Shard: a.Shard, Shard2: b.Shard},
		Reason: fmt.Sprintf("shards %s and %s cold for %d+ ticks (%.0f and %.0f ops/tick): merging", a.Shard, b.Shard, p.cfg.SustainTicks, a.Ops, b.Ops),
	}, true
}

// emit finalizes a plan: count it, clear the involved shards' streaks (their
// routes are about to be replaced), and enter the awaiting state.
func (p *Planner) emit(pl Plan) Plan {
	p.stats.Plans++
	switch pl.Move.Kind {
	case reconfig.MoveSplit:
		p.stats.Splits++
	case reconfig.MoveMerge:
		p.stats.Merges++
	case reconfig.MoveDrain:
		p.stats.Drains++
	}
	delete(p.streaks, pl.Move.Shard)
	if pl.Move.Shard2 != "" {
		delete(p.streaks, pl.Move.Shard2)
	}
	p.awaiting = true
	return pl
}
