package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"spacebounds/internal/dsys"
	"spacebounds/internal/shard"
)

// Sim-level policy decision kinds, layered above dsys's: with a reconfig
// plan, migrations are no longer paced by a background task — the adversary
// decides when a move starts, when the migration controller crashes
// mid-move, and when a standby controller takes the interrupted move over.
// They are recorded as fault events, so a failure artifact shows exactly
// where in the schedule the controller died.
const (
	// KindStartMove releases the next planned reconfiguration move; the
	// active controller picks it up at its next scheduling.
	KindStartMove = dsys.EventKind("start-move")
	// KindCrashController crashes the active controller incarnation (it
	// translates to a dsys client crash of the controller's client ID). Only
	// rolled while a move is in flight, so the crash lands between migration
	// steps.
	KindCrashController = dsys.EventKind("crash-controller")
	// KindResumeController activates the next standby controller
	// incarnation, which re-drives the interrupted move from its ledger.
	KindResumeController = dsys.EventKind("resume-controller")
)

// The per-scheduling-decision probabilities of the adversary's fault moves.
// They are rolled once per decision, in the order listed; a move whose
// preconditions fail (no candidate victim, budget exhausted) falls through to
// an ordinary scheduling move, so the rates are upper bounds.
const (
	// crashObjectRate permanently crashes a base object. Crashed plus
	// suspended objects never exceed the shard's f, so quorums stay formable.
	crashObjectRate = 0.01
	// suspendObjectRate marks a base object unresponsive until resumed.
	suspendObjectRate = 0.05
	// resumeObjectRate lifts one suspension.
	resumeObjectRate = 0.08
	// crashClientRate crashes a client mid-operation: it never takes another
	// step, though its in-flight RMWs may still land. At most a third of the
	// clients crash.
	crashClientRate = 0.01
	// startMoveRate releases the next planned reconfiguration move (reconfig
	// plans only).
	startMoveRate = 0.02
	// crashControllerRate crashes the active migration controller while a
	// move is in flight (bounded by ReconfigPlan.ControllerCrashes).
	crashControllerRate = 0.03
	// resumeControllerRate activates the next standby controller after a
	// controller crash (a deterministic takeover backstop in the standby
	// task bounds the outage even when this never fires).
	resumeControllerRate = 0.05
)

// FaultEvent is one fault injected by the adversary, recorded for the
// failure artifact (the full schedule is reproducible from the seed alone).
type FaultEvent struct {
	Step   int
	Kind   dsys.EventKind
	Object int // -1 for client faults
	Client int // -1 for object faults
}

// String implements fmt.Stringer.
func (e FaultEvent) String() string {
	if e.Client >= 0 {
		return fmt.Sprintf("step %d: %s client %d", e.Step, e.Kind, e.Client)
	}
	if e.Object >= 0 {
		return fmt.Sprintf("step %d: %s object %d", e.Step, e.Kind, e.Object)
	}
	return fmt.Sprintf("step %d: %s", e.Step, e.Kind)
}

// adversary is the seeded scheduling policy of the simulator: at every
// scheduling point it either injects a fault (within the model's budgets),
// makes a controller decision (release a reconfiguration move, crash the
// migration controller mid-move, activate a standby), or picks uniformly at
// random among the enabled moves — running a ready client or applying a
// pending RMW on a responsive object. Random choice among enabled moves is
// exactly the delay/reorder power the model's environment has over pending
// RMWs. Before each decision it holds every region to the space rule. The
// policy is a deterministic function of its seed: replaying a seed replays
// the schedule.
type adversary struct {
	rng *rand.Rand
	// moves makes the ordinary scheduling moves, drawing from rng.
	moves *dsys.RandomPolicy
	// router supplies the current shard layout; reconfiguration grows and
	// retires regions mid-run, and the fault budget and the space rule follow
	// the topology. shards is the router's listing at routing epoch epoch,
	// read again when the epoch moves. The router is consulted at scheduling
	// points only, so its answers are a pure function of the schedule.
	router *shard.Router
	epoch  int64
	shards []*shard.Shard
	// space is the space rule, checked at every scheduling point.
	space spaceRule
	// cands is the buffer a fault roll lists its candidates into: objects
	// (faultCandidates) or clients.
	cands []int
	// maxClientCrashes caps the generic client-crash move.
	maxClientCrashes int
	// crashController and resumeController are the controller-crash and
	// standby-resume rates: crashControllerRate and resumeControllerRate
	// when controller crashes are planned, 0 otherwise.
	crashController, resumeController float64
	// immortal clients (the controller incarnations) are exempt from the
	// generic client-crash move; the controller is crashed only through the
	// budgeted KindCrashController decision, which the resume machinery pairs
	// with a takeover.
	immortal map[int]bool
	// ctrl is the controller coordination state (nil without a reconfig
	// plan). The adversary reads and mutates it at scheduling points only.
	ctrl *controllerState
	// moveInFlight reports whether a migration is mid-protocol; controller
	// crashes are only rolled then, so they land between migration steps.
	moveInFlight func() bool

	crashed       map[int]bool // objects
	suspended     map[int]bool // objects
	clientCrashes int
	events        []FaultEvent
}

var _ dsys.Policy = (*adversary)(nil)

// newAdversary builds the policy for a run with totalClients client tasks and
// the given controller-crash budget.
func newAdversary(seed int64, totalClients, controllerCrashes int) *adversary {
	a := &adversary{
		rng:              rand.New(rand.NewSource(seed)),
		maxClientCrashes: totalClients / 3,
		immortal:         make(map[int]bool),
		space:            spaceRule{tallies: make(map[*shard.Shard]*regionSpace)},
		crashed:          make(map[int]bool),
		suspended:        make(map[int]bool),
	}
	a.moves = dsys.RandomPolicyOn(a.rng)
	if controllerCrashes > 0 {
		a.crashController, a.resumeController = crashControllerRate, resumeControllerRate
	}
	return a
}

// bind tells the adversary the set it schedules: where to read the
// (possibly changing) shard layout, and the cluster the space rule reads. It
// must be called before the cluster starts scheduling.
func (a *adversary) bind(set *shard.Set) { a.router, a.space.cluster = set.Router(), set.Cluster() }

// bindController wires the controller coordination state and the in-flight
// probe. It must be called before the cluster starts scheduling.
func (a *adversary) bindController(ctrl *controllerState, inFlight func() bool) {
	a.ctrl = ctrl
	a.moveInFlight = inFlight
}

// spare marks a client as exempt from the generic client-crash move.
func (a *adversary) spare(client int) { a.immortal[client] = true }

// faultedIn counts crashed plus suspended objects of one region.
func (a *adversary) faultedIn(sh *shard.Shard) int {
	n := 0
	for obj := sh.Base; obj < sh.Base+sh.Span; obj++ {
		if a.crashed[obj] || a.suspended[obj] {
			n++
		}
	}
	return n
}

// faultCandidates lists objects that may be crashed or suspended without
// blowing a shard's fault budget, in ascending order, into the adversary's
// candidate buffer: the list is valid until the next roll.
func (a *adversary) faultCandidates() []int {
	out := a.cands[:0]
	for _, sh := range a.shards {
		if a.faultedIn(sh) >= sh.Reg.Config().F {
			continue
		}
		for obj := sh.Base; obj < sh.Base+sh.Span; obj++ {
			if !a.crashed[obj] && !a.suspended[obj] {
				out = append(out, obj)
			}
		}
	}
	a.cands = out
	return out
}

// suspendedList returns the suspended objects in ascending order so picks are
// deterministic.
func (a *adversary) suspendedList() []int {
	out := make([]int, 0, len(a.suspended))
	for obj := range a.suspended {
		out = append(out, obj)
	}
	sort.Ints(out)
	return out
}

func (a *adversary) note(step int, kind dsys.EventKind, object, client int) {
	a.events = append(a.events, FaultEvent{Step: step, Kind: kind, Object: object, Client: client})
}

// clientAlive reports whether the view lists the client as a live task.
func clientAlive(v *dsys.View, client int) bool {
	for _, cl := range v.Clients {
		if cl == client {
			return true
		}
	}
	return false
}

// Decide implements dsys.Policy.
func (a *adversary) Decide(v *dsys.View) dsys.Decision {
	// Every change to the router's listing moves its epoch. The router takes
	// none of the locks held across the cluster's, which Decide runs under.
	if epoch := a.router.Epoch(); a.shards == nil || epoch != a.epoch {
		a.epoch, a.shards = epoch, a.router.Shards()
		a.space.relayout(a.shards)
	}
	a.space.step(v)
	roll := a.rng.Float64()
	// cum is a float64 variable, so each threshold below is summed in float64
	// step by step, not folded exactly at compile time.
	cum := float64(crashObjectRate)
	switch {
	case roll < cum:
		if cands := a.faultCandidates(); len(cands) > 0 {
			obj := cands[a.rng.Intn(len(cands))]
			a.crashed[obj] = true
			a.note(v.Step, dsys.EventCrash, obj, -1)
			return dsys.Decision{Kind: dsys.KindCrashObject, Object: obj}
		}
	case roll < cum+suspendObjectRate:
		if cands := a.faultCandidates(); len(cands) > 0 {
			obj := cands[a.rng.Intn(len(cands))]
			a.suspended[obj] = true
			a.note(v.Step, dsys.EventSuspend, obj, -1)
			return dsys.Decision{Kind: dsys.KindSuspendObject, Object: obj}
		}
	case roll < cum+suspendObjectRate+resumeObjectRate:
		if sus := a.suspendedList(); len(sus) > 0 {
			obj := sus[a.rng.Intn(len(sus))]
			delete(a.suspended, obj)
			a.note(v.Step, dsys.EventResume, obj, -1)
			return dsys.Decision{Kind: dsys.KindResumeObject, Object: obj}
		}
	case roll < cum+suspendObjectRate+resumeObjectRate+crashClientRate:
		if a.clientCrashes < a.maxClientCrashes {
			cands := a.cands[:0]
			for _, cl := range v.Clients {
				if !a.immortal[cl] {
					cands = append(cands, cl)
				}
			}
			a.cands = cands
			if len(cands) > 0 {
				client := cands[a.rng.Intn(len(cands))]
				a.clientCrashes++
				a.note(v.Step, dsys.EventClientCrash, -1, client)
				return dsys.Decision{Kind: dsys.KindCrashClient, Client: client}
			}
		}
	default:
		if d, ok := a.controllerDecision(v, roll-cum-suspendObjectRate-resumeObjectRate-crashClientRate); ok {
			return d
		}
	}
	return a.scheduleMove(v)
}

// controllerDecision rolls the reconfiguration-control moves. A start-move or
// resume-controller decision mutates the shared controller state and reports
// !ok so the scheduler still makes an ordinary move this step; a
// crash-controller decision is a real dsys client crash.
func (a *adversary) controllerDecision(v *dsys.View, roll float64) (dsys.Decision, bool) {
	if a.ctrl == nil || roll < 0 {
		return dsys.Decision{}, false
	}
	switch {
	case roll < startMoveRate:
		if a.ctrl.release() {
			a.note(v.Step, KindStartMove, -1, -1)
		}
	case roll < startMoveRate+a.crashController:
		// Only mid-move (the interesting interleavings are crashes between
		// migration steps), only while a standby remains, and only if the
		// active incarnation is still a live task.
		if a.moveInFlight != nil && a.moveInFlight() {
			if client, ok := a.ctrl.crashActive(func(id int) bool { return clientAlive(v, id) }); ok {
				a.note(v.Step, KindCrashController, -1, client)
				return dsys.Decision{Kind: dsys.KindCrashClient, Client: client}, true
			}
		}
	case roll < startMoveRate+a.crashController+a.resumeController:
		if client, ok := a.ctrl.resumeNext(); ok {
			a.note(v.Step, KindResumeController, -1, client)
		}
	}
	return dsys.Decision{}, false
}

// scheduleMove is the ordinary scheduling move: uniformly random among ready
// clients and applicable pending RMWs — the random delay/reorder of the
// environment, dsys.RandomPolicy's move, drawn from the adversary's
// generator.
func (a *adversary) scheduleMove(v *dsys.View) dsys.Decision {
	if d := a.moves.Decide(v); d.Kind != dsys.KindStall {
		return d
	}
	// Everything schedulable is behind a suspension: resume one object
	// rather than pinning the run (the adversary must stay fair to correct
	// processes for liveness-oriented exploration).
	if sus := a.suspendedList(); len(sus) > 0 {
		obj := sus[0]
		delete(a.suspended, obj)
		a.note(v.Step, dsys.EventResume, obj, -1)
		return dsys.Decision{Kind: dsys.KindResumeObject, Object: obj}
	}
	return dsys.Decision{Kind: dsys.KindStall}
}
