// Package sim is a deterministic fault-schedule simulator for the register
// emulations: a seeded explorer that drives the controlled-mode dsys runtime
// with a PRNG-derived adversarial policy — randomly delaying and reordering
// pending RMWs, crashing clients mid-round, and suspending or crashing up to
// f base objects per shard — while recording every invocation and response
// into an operation history stamped with the scheduler's logical clock. After
// the run, each shard's history is checked against the consistency condition
// its emulation claims (strong regularity for the regular registers, strong
// safety for the safe register, linearizability for configurations known to
// be atomic), and a failing run auto-shrinks its history to a minimal
// violating sub-history.
//
// With a Reconfig plan, the simulator additionally drives dynamic
// reconfiguration as first-class adversary decisions: the scheduling policy
// decides when each planned split, drain or merge starts (KindStartMove),
// when the migration controller crashes between migration steps
// (KindCrashController), and when a standby controller takes the interrupted
// move over and re-drives it from its step ledger (KindResumeController,
// with a deterministic takeover backstop). The clients route every operation
// through the epoch-stamped table (yield-retrying while a write's target is
// still seeding), and each surviving shard's history is stitched across its
// migration lineage before checking; a merge's value-ordering loser becomes
// a pruned branch, checked as its own terminated register. After the run the
// simulator additionally asserts that reconfiguration resolved: no move left
// in flight and no route left Seeding or Draining — the crash-resumability
// claim, falsified if any controller-crash interleaving can strand a
// migration.
//
// Everything the run does is a pure function of Config (the seed in
// particular): Run twice with the same Config and the histories, verdicts and
// Fingerprint are identical, which is what makes failures replayable byte for
// byte (Replay) and explorable at scale in CI (Explore across seed ranges).
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/node" // the layout k-rule, and the four register providers
	"spacebounds/internal/reconfig"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// ShardPlan configures one simulated shard.
type ShardPlan struct {
	// Provider is the register provider name ("adaptive", "abd", "ecreg",
	// "safereg").
	Provider string
	// F and K are the shard's fault tolerance and decode threshold; K is
	// forced to 1 for abd. Zero values default to F=1 and K=2 (K=1 for abd).
	F, K int
	// DataLen is the value size in bytes (default 8; small values keep
	// exploration fast without changing the scheduling space).
	DataLen int
}

// ReconfigPlan enables reconfiguration as adversary decisions: the policy
// releases the planned moves at PRNG-chosen scheduling points
// (KindStartMove), the controller executes them against seeded-random active
// shards (successors of earlier moves included, so lineages chain), and —
// with ControllerCrashes > 0 — the policy crashes the controller between
// migration steps and later activates a standby that resumes the interrupted
// move from its ledger.
type ReconfigPlan struct {
	// Splits is the number of shard splits to perform.
	Splits int
	// Drains is the number of shard drains (fresh-region migrations).
	Drains int
	// Merges is the number of shard merges (two sources into one successor).
	Merges int
	// ControllerCrashes caps the adversary's KindCrashController decisions;
	// ControllerCrashes+1 controller incarnations are spawned so every
	// interrupted move has a resumer.
	ControllerCrashes int
	// Sabotage makes the first Sabotage applied moves fail a PRNG-chosen
	// migration step with a genuine (non-interruption) error, forcing their
	// drivers onto the abort path. Combined with ControllerCrashes this is
	// what puts controller crashes *inside* rollbacks on the schedule: the
	// move stays in flight while aborting, so KindCrashController can land on
	// the rollback's checkpoints and a standby must resume the abort from the
	// ledger.
	Sabotage int
}

// Enabled reports whether any reconfiguration move is planned.
func (p ReconfigPlan) Enabled() bool { return p.Splits > 0 || p.Drains > 0 || p.Merges > 0 }

// Config describes one deterministic simulation run.
type Config struct {
	// Seed drives every random choice: the adversary's schedule and faults
	// and the clients' operation mixes.
	Seed int64
	// Shards lists the simulated shards (default: one shard per provider).
	Shards []ShardPlan
	// Clients is the number of client tasks per shard (default 3).
	Clients int
	// OpsPerClient is the number of operations each client attempts
	// (default 4).
	OpsPerClient int
	// Reconfig schedules dynamic-reconfiguration moves mid-run (zero value:
	// topology fixed, exactly the pre-reconfiguration simulator).
	Reconfig ReconfigPlan
	// CheckLinearizable additionally checks every shard's history for
	// linearizability. Only sound for configurations that promise atomicity —
	// the sweep uses it with Clients=1, where operations are sequential and
	// regularity coincides with atomicity.
	CheckLinearizable bool
}

const (
	// readFraction is the probability a client operation is a read.
	readFraction = 0.4
	// maxSteps bounds a run's scheduling decisions as a runaway backstop.
	maxSteps = 200000
)

// DefaultProviders are the register providers the default config and the
// exploration sweeps cover.
var DefaultProviders = []string{"adaptive", "abd", "ecreg", "safereg"}

func (c Config) withDefaults() Config {
	if len(c.Shards) == 0 {
		for _, p := range DefaultProviders {
			c.Shards = append(c.Shards, ShardPlan{Provider: p})
		}
	}
	shards := append([]ShardPlan(nil), c.Shards...)
	for i := range shards {
		s := &shards[i]
		if s.F == 0 {
			s.F = 1
		}
		if s.K == 0 {
			s.K = 2
		}
		s.K = node.EffectiveK(s.Provider, s.K)
		if s.DataLen == 0 {
			s.DataLen = 8
		}
	}
	c.Shards = shards
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 4
	}
	return c
}

// ShardVerdict is the checker outcome for one shard.
type ShardVerdict struct {
	// Shard and Provider identify the emulation.
	Shard, Provider string
	// Condition names the consistency condition checked.
	Condition string
	// Lineage is the migration ancestry the history was stitched across
	// (just the shard itself for an unreconfigured run).
	Lineage []string
	// History is the shard's recorded (lineage-stitched) history.
	History *history.History
	// Err is nil when the condition holds; otherwise the violation.
	Err error
	// Shrunk is the auto-shrunk minimal violating sub-history (violations
	// only).
	Shrunk *history.History
}

// Result is the outcome of one deterministic run.
type Result struct {
	Seed             int64
	Steps            int
	Reason           dsys.IdleReason
	CrashedObjects   []int
	SuspendedObjects []int
	CrashedClients   []int
	// Faults is the adversary's fault schedule in injection order (controller
	// crash/resume and move-release decisions included).
	Faults []FaultEvent
	// Reconfigs is the applied reconfiguration schedule (completed moves with
	// their epochs and logical times), empty without a Reconfig plan.
	Reconfigs []reconfig.Event
	// Moves is the full reconfiguration ledger: every move's step record,
	// completed, aborted and (if the run got stuck) in-flight ones.
	Moves []reconfig.MoveState
	// ControllerCrashes / ControllerResumes count the adversary's controller
	// crash and takeover decisions (backstop promotions included).
	ControllerCrashes, ControllerResumes int
	// RouteLeaks lists routes left mid-lifecycle (Seeding or Draining) at the
	// end of the run; crash-resumable reconfiguration promises there are
	// none.
	RouteLeaks []string
	// Verdicts holds one entry per shard per checked condition.
	Verdicts []ShardVerdict
	// SpaceViolations lists the regions whose storage at the end of a
	// quiesced run broke the quiescent space clause (quiescentSpace).
	SpaceViolations []string
	// FollowUpUpdates counts the (write, base object) pairs at which a fourth
	// RMW of the write took effect. Only an adaptive write that ran its
	// follow-up update round sends an object four (query, piece-only update,
	// update with the replica, GC). It is not part of the fingerprint.
	FollowUpUpdates int
	// Fingerprint is a hash over histories, fault schedule, reconfigurations,
	// the move ledger and verdicts; two runs of the same Config must produce
	// the same fingerprint.
	Fingerprint string
}

// Violations returns the verdicts whose condition failed.
func (r *Result) Violations() []ShardVerdict {
	var out []ShardVerdict
	for _, v := range r.Verdicts {
		if v.Err != nil {
			out = append(out, v)
		}
	}
	return out
}

// Unresolved returns the moves the run left in flight: neither completed nor
// cleanly aborted.
func (r *Result) Unresolved() []reconfig.MoveState {
	var out []reconfig.MoveState
	for _, m := range r.Moves {
		if m.InFlight() {
			out = append(out, m)
		}
	}
	return out
}

// Failed reports whether any checked condition was violated, a route was
// left mid-lifecycle, a move was left unresolved, or a region broke the
// quiescent space clause.
func (r *Result) Failed() bool {
	return len(r.Violations()) > 0 || len(r.RouteLeaks) > 0 || len(r.Unresolved()) > 0 || len(r.SpaceViolations) > 0
}

// conditionFor maps a provider to the consistency condition its emulation
// claims (and the paper proves): the adaptive algorithm and the replicated /
// coded baselines are strongly regular; the Appendix E register is only safe.
func conditionFor(provider string) (string, func(*history.History) error) {
	if provider == "safereg" {
		return "strong safety", history.CheckStrongSafety
	}
	return "strong regularity", history.CheckStrongRegularity
}

// clientStride spaces the client IDs of consecutive shards. Run rejects
// configurations with more clients per shard, which would let two shards'
// IDs collide (and a KindCrashClient decision kill both tasks at once).
const clientStride = 100

// clientID assigns globally unique client IDs: shards are strided so that a
// client's ID also identifies its home shard in histories and timestamps.
func clientID(shardIdx, client int) int { return shardIdx*clientStride + client + 1 }

// Run executes one deterministic simulation. The returned error covers
// configuration problems only; consistency violations are reported in the
// Result so that callers can replay and shrink them.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Clients >= clientStride {
		return nil, fmt.Errorf("sim: at most %d clients per shard (got %d): shard client IDs are strided by %d",
			clientStride-1, cfg.Clients, clientStride)
	}
	specs := make([]shard.Spec, 0, len(cfg.Shards))
	for i, p := range cfg.Shards {
		specs = append(specs, shard.Spec{
			Name:      fmt.Sprintf("s%d-%s", i, p.Provider),
			Algorithm: p.Provider,
			Config:    register.Config{F: p.F, K: p.K, DataLen: p.DataLen},
		})
	}
	adv := newAdversary(cfg.Seed, cfg.Clients*len(cfg.Shards), cfg.Reconfig.ControllerCrashes)
	type writeAt struct {
		op     dsys.OpID
		object int
	}
	applied, followUps := map[writeAt]int{}, 0
	set, err := shard.New(specs,
		dsys.WithControlledMode(),
		dsys.WithPolicy(adv),
		dsys.WithMaxSteps(maxSteps),
		dsys.WithEventLog(func(ev dsys.Event) {
			if ev.Kind != dsys.EventApply || ev.Op.Kind != dsys.OpWrite {
				return
			}
			at := writeAt{ev.Op, ev.Object}
			if applied[at]++; applied[at] == 4 {
				followUps++
			}
		}),
	)
	if err != nil {
		return nil, err
	}
	cluster := set.Cluster()
	defer cluster.Close()

	// The adversary reads the (possibly changing) shard layout through the
	// router, so its fault budget follows reconfiguration.
	adv.bind(func() []region {
		rr := set.Router().Regions()
		out := make([]region, 0, len(rr))
		for _, r := range rr {
			out = append(out, region{base: r.Base, span: r.Span, f: r.F})
		}
		return out
	})

	recorders := history.NewRecorders(cluster.LogicalTime)
	for _, sh := range set.Shards() {
		recorders.For(sh.Name)
	}

	var completedOps atomic.Int64
	var doneClients atomic.Int64
	totalClients := cfg.Clients * len(cfg.Shards)
	co := reconfig.NewCoordinator(set)

	// Spawn every client before Start so tickets — and therefore the whole
	// schedule — are assigned deterministically. Without a reconfig plan the
	// clients are pinned to their home shard exactly as before; with one they
	// route every operation, because their home shard may be split, merged or
	// drained under them mid-run.
	var handles []*dsys.TaskHandle
	for si, sh := range set.Shards() {
		for cl := 0; cl < cfg.Clients; cl++ {
			id := clientID(si, cl)
			if cfg.Reconfig.Enabled() {
				handles = append(handles, cluster.SpawnScoped(id, 0, cluster.N(),
					routedClientScript(cfg, set, recorders, &completedOps, &doneClients, id, sh.Name)))
			} else {
				handles = append(handles, cluster.SpawnScoped(id, sh.Base, sh.Span,
					clientScript(cfg, sh.Reg, recorders.For(sh.Name), &completedOps, &doneClients, id)))
			}
		}
	}
	var ctrl *controllerState
	if cfg.Reconfig.Enabled() {
		// ControllerCrashes+1 incarnations, spawned up front so tickets stay
		// deterministic: incarnation 0 starts on duty, the rest park until the
		// adversary (or the takeover backstop) promotes them. The generic
		// client-crash move spares them all; KindCrashController is the only
		// way a controller dies.
		ctrl = newControllerState(cfg.Seed, cfg.Reconfig)
		done := workloadDoneFunc(cluster, &doneClients, totalClients)
		for i := 0; i < cfg.Reconfig.ControllerCrashes+1; i++ {
			id := reconfigClientID + i
			adv.spare(id)
			handles = append(handles, cluster.SpawnScoped(id, 0, cluster.N(),
				controllerScript(set, co, ctrl, i, done)))
		}
		adv.bindController(ctrl, func() bool { return co.InFlight() != nil })
	}
	cluster.Start()
	reason := cluster.WaitIdle()

	res := &Result{
		Seed:             cfg.Seed,
		Steps:            cluster.Steps(),
		Reason:           reason,
		CrashedObjects:   cluster.CrashedObjects(),
		SuspendedObjects: cluster.SuspendedObjects(),
		CrashedClients:   cluster.CrashedClients(),
		Faults:           adv.events,
		Reconfigs:        co.Events(),
		FollowUpUpdates:  followUps,
	}
	if ctrl != nil {
		res.ControllerCrashes, res.ControllerResumes = ctrl.counters()
	}
	// Crash-resumable reconfiguration promises that the run ends with every
	// route settled: a leak here means some controller-crash interleaving
	// stranded a migration.
	for _, name := range set.Router().Names() {
		if st := set.Router().RouteOf(name).State(); st == shard.RouteSeeding || st == shard.RouteDraining {
			leak := fmt.Sprintf("%s:%v", name, st)
			if readers, writers := set.Router().Pins(name); len(readers) > 0 || len(writers) > 0 {
				// Name the clients a stalled drain is waiting on — the first
				// question a leak triage asks.
				leak += fmt.Sprintf(" (read pins %v, write pins %v)", readers, writers)
			}
			res.RouteLeaks = append(res.RouteLeaks, leak)
		}
	}
	if reason == dsys.IdleQuiesced {
		res.SpaceViolations = quiescentSpace(set, recorders)
	}
	cluster.Close()
	for _, h := range handles {
		_ = h.Wait() // crashed clients report ErrHalted; that is their crash
	}
	res.Moves = co.Ledger() // after Wait: interruption flags are settled

	// One verdict per surviving leaf shard, its history stitched across its
	// migration lineage (for an unreconfigured run the lineage is the shard
	// itself and stitching is the identity) — plus one per pruned merge
	// branch, whose history ends at the merge that discarded its value.
	for _, name := range set.Router().CheckedNames() {
		sh := set.Shard(name)
		lineage := set.Lineage(name)
		h := recorders.Stitch(value.Zero(sh.Reg.Config().DataLen), lineage)
		provider := sh.Algorithm
		cond, check := conditionFor(provider)
		res.Verdicts = append(res.Verdicts, verdict(name, provider, cond, lineage, h, check))
		if cfg.CheckLinearizable {
			res.Verdicts = append(res.Verdicts,
				verdict(name, provider, "linearizability", lineage, h, history.CheckLinearizability))
		}
	}
	res.Fingerprint = fingerprint(res)
	return res, nil
}

// verdict checks one condition over one history, auto-shrinking violations.
func verdict(name, provider, cond string, lineage []string, h *history.History, check func(*history.History) error) ShardVerdict {
	v := ShardVerdict{Shard: name, Provider: provider, Condition: cond, Lineage: lineage, History: h, Err: check(h)}
	if v.Err != nil {
		v.Shrunk = ShrinkHistory(h, check)
	}
	return v
}

// clientScript builds one fixed-shard client task (the pre-reconfiguration
// behavior): a deterministic per-client mix of writes of globally unique
// values and reads, recorded in the shard's history. Operation errors (a read
// starved by concurrent writes, a halted cluster after a crash) leave the
// operation incomplete in the history, which is exactly how the checkers
// treat an operation whose response never arrived.
func clientScript(cfg Config, reg register.Register, rec *history.Recorder, completed, done *atomic.Int64, id int) func(*dsys.ClientHandle) error {
	dataLen := reg.Config().DataLen
	return func(h *dsys.ClientHandle) error {
		defer done.Add(1)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*1000003))
		seq := 0
		for i := 0; i < cfg.OpsPerClient; i++ {
			if rng.Float64() < readFraction {
				op := rec.BeginRead(id)
				v, err := reg.Read(h)
				if err != nil {
					if errors.Is(err, dsys.ErrHalted) {
						return nil
					}
					continue
				}
				rec.EndRead(op, v)
				completed.Add(1)
			} else {
				seq++
				v := value.Sequenced(id, seq, dataLen)
				op := rec.BeginWrite(id, v)
				if err := reg.Write(h, v); err != nil {
					if errors.Is(err, dsys.ErrHalted) {
						return nil
					}
					continue
				}
				rec.EndWrite(op)
				completed.Add(1)
			}
		}
		return nil
	}
}

// routedClientScript builds one routing client task for reconfiguration runs:
// every operation resolves its key through the epoch-stamped table, pins the
// route, and records its history on the shard it actually executed on. Writes
// whose target is a still-seeding successor yield to the scheduler and retry
// — the controlled-mode equivalent of the live path's blocking acquire.
func routedClientScript(cfg Config, set *shard.Set, recs *history.Recorders, completed, done *atomic.Int64, id int, home string) func(*dsys.ClientHandle) error {
	// Favor keys that route near the home shard but roam the shared keyspace,
	// so splits re-partition real traffic.
	keys := []string{home, home, "key-0", "key-1", "key-2", "key-3"}
	return func(h *dsys.ClientHandle) error {
		defer done.Add(1)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*1000003))
		rt := set.Router()
		seq := 0
		for i := 0; i < cfg.OpsPerClient; i++ {
			key := keys[rng.Intn(len(keys))]
			if rng.Float64() < readFraction {
				ref, fb, err := rt.AcquireRead(id, key)
				if err != nil {
					return nil // router closed with the cluster
				}
				fbName := ""
				if fb != nil {
					fbName = fb.Shard().Name
				}
				op := recs.BeginRead(id, 0, ref.Shard().Name, fbName)
				v, fell, err := shard.ReadRouted(h, ref, fb)
				rt.ReleaseRead(ref, fb, id)
				if err != nil {
					if errors.Is(err, dsys.ErrHalted) {
						return nil
					}
					continue
				}
				op.EndRead(v, fell)
				completed.Add(1)
				continue
			}
			var ref *shard.Route
			for {
				r, held, err := rt.TryAcquireWrite(id, key)
				if err != nil {
					return nil
				}
				if !held {
					ref = r
					break
				}
				// The target is seeding: give the migration writer scheduler
				// time and re-route (the next resolve may land on the opened
				// successor).
				if err := h.Yield(); err != nil {
					return nil
				}
			}
			sh := ref.Shard()
			seq++
			v := value.Sequenced(id, seq, sh.Reg.Config().DataLen)
			// Invoked now, after the held-write yields: an operation is
			// stamped once its route is pinned, on the scheduler's clock.
			op := recs.BeginWrite(id, 0, sh.Name, v)
			sub, err := h.Sub(sh.Base, sh.Span)
			if err == nil {
				err = sh.Reg.Write(sub, v)
			}
			rt.ReleaseWrite(ref, id)
			if err != nil {
				if errors.Is(err, dsys.ErrHalted) {
					return nil
				}
				continue
			}
			op.EndWrite()
			completed.Add(1)
		}
		return nil
	}
}

// fingerprint hashes everything observable about the run: per-shard histories
// (operations with their logical intervals and values), the fault schedule,
// the reconfiguration schedule and full move ledger, the controller
// crash/takeover counters, route leaks, the scheduling step count and idle
// reason, and every checker verdict.
func fingerprint(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "steps=%d reason=%s\n", r.Steps, r.Reason)
	fmt.Fprintf(h, "crashed=%v suspended=%v clients=%v\n", r.CrashedObjects, r.SuspendedObjects, r.CrashedClients)
	fmt.Fprintf(h, "ctrl crashes=%d resumes=%d leaks=%v\n", r.ControllerCrashes, r.ControllerResumes, r.RouteLeaks)
	for _, ev := range r.Faults {
		fmt.Fprintf(h, "fault %s\n", ev)
	}
	for _, ev := range r.Reconfigs {
		fmt.Fprintf(h, "reconfig %s\n", ev)
	}
	for _, m := range r.Moves {
		fmt.Fprintf(h, "ledger %s\n", m)
	}
	if len(r.SpaceViolations) > 0 {
		fmt.Fprintf(h, "space %q\n", r.SpaceViolations)
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(h, "shard %s lineage %v condition %s err=%v\n", v.Shard, v.Lineage, v.Condition, v.Err)
		for _, op := range v.History.Ops {
			fmt.Fprintf(h, "op c%d #%d %v @%d-%d ", op.Client, op.ID, op.Kind, op.Invoked, op.Returned)
			h.Write(op.Value.Bytes())
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Replay re-executes a seed's schedule and verifies that it reproduces the
// given fingerprint byte for byte. It is how a failure found by an
// exploration sweep is turned into a deterministic reproducer: persist the
// failing Config (usually just the seed) and fingerprint, then Replay in a
// test or debugger as often as needed.
func Replay(cfg Config, wantFingerprint string) (*Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if wantFingerprint != "" && res.Fingerprint != wantFingerprint {
		return res, fmt.Errorf("sim: replay of seed %d diverged: fingerprint %s, want %s",
			cfg.Seed, res.Fingerprint, wantFingerprint)
	}
	return res, nil
}

// Explore runs n seeds starting at baseSeed and returns the failing results.
func Explore(cfg Config, baseSeed int64, n int) ([]*Result, error) {
	var failures []*Result
	for i := 0; i < n; i++ {
		cfg.Seed = baseSeed + int64(i)
		res, err := Run(cfg)
		if err != nil {
			return failures, err
		}
		if res.Failed() {
			failures = append(failures, res)
		}
	}
	return failures, nil
}

// FormatFailure renders a failing result as a replayable report: the seed,
// the fault and reconfiguration schedules, and each violation with its
// shrunken history.
func FormatFailure(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d steps, reason %s, fingerprint %s\n", r.Seed, r.Steps, r.Reason, r.Fingerprint)
	if len(r.Faults) > 0 {
		fmt.Fprintf(&b, "fault schedule:\n")
		for _, ev := range r.Faults {
			fmt.Fprintf(&b, "  %s\n", ev)
		}
	}
	if len(r.Reconfigs) > 0 {
		fmt.Fprintf(&b, "reconfiguration schedule:\n")
		for _, ev := range r.Reconfigs {
			fmt.Fprintf(&b, "  %s\n", ev)
		}
	}
	if len(r.Moves) > 0 {
		fmt.Fprintf(&b, "move ledger (%d controller crashes, %d takeovers):\n", r.ControllerCrashes, r.ControllerResumes)
		for _, m := range r.Moves {
			fmt.Fprintf(&b, "  %s\n", m)
		}
	}
	for _, leak := range r.RouteLeaks {
		fmt.Fprintf(&b, "route left mid-lifecycle at run end: %s\n", leak)
	}
	for _, m := range r.Unresolved() {
		fmt.Fprintf(&b, "move left unresolved at run end: %s\n", m)
	}
	for _, v := range r.SpaceViolations {
		fmt.Fprintf(&b, "quiescent space bound violated: %s\n", v)
	}
	for _, v := range r.Violations() {
		fmt.Fprintf(&b, "shard %s (%s) violates %s: %v\n", v.Shard, v.Provider, v.Condition, v.Err)
		if len(v.Lineage) > 1 {
			fmt.Fprintf(&b, "history stitched across lineage %v\n", v.Lineage)
		}
		fmt.Fprintf(&b, "minimal failing history (%d of %d events):\n", len(v.Shrunk.Ops), len(v.History.Ops))
		for _, op := range v.Shrunk.Ops {
			fmt.Fprintf(&b, "  %v\n", op)
		}
	}
	return b.String()
}
