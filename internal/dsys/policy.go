package dsys

import (
	"math/rand"

	"spacebounds/internal/oracle"
	"spacebounds/internal/storagecost"
)

// PendingView describes one pending RMW to a scheduling policy.
type PendingView struct {
	// Index identifies the pending RMW within the View (pass it back in a
	// Decision with KindApply).
	Index int
	// Seq is the global trigger order; lower means triggered earlier, which
	// is what "longest pending" refers to.
	Seq int64
	// Object is the target base object.
	Object int
	// ObjectCrashed reports whether the target has crashed; crashed objects
	// never apply RMWs, so choosing one is a scheduling error.
	ObjectCrashed bool
	// ObjectSuspended reports whether the target is currently suspended
	// (unresponsive but alive); suspended objects do not apply RMWs until a
	// KindResumeObject decision, so choosing one is a scheduling error.
	ObjectSuspended bool
	// ObjectRetired reports whether the target was retired by reconfiguration;
	// like a crashed object, a retired object never applies RMWs, so choosing
	// one is a scheduling error.
	ObjectRetired bool
	// Client is the triggering client and Op the high-level operation the
	// RMW belongs to.
	Client int
	Op     OpID
}

// ReadyClient describes a client task that is ready to execute local steps
// (it has been unblocked or newly spawned and awaits the run token).
type ReadyClient struct {
	Ticket int64
	Client int
}

// View is the information a Policy sees at each scheduling point. The
// cluster keeps one View and refills it for every decision, so a View and
// every list in it are valid only during the Decide call they are passed to:
// a policy that needs something past its return copies it out. No policy in
// this repository keeps one (FairPolicy, RandomPolicy, DelayObjectsPolicy,
// the adversary Ad and the simulator's adversary).
type View struct {
	// Step counts scheduling decisions made so far.
	Step int
	// Pending lists RMWs that have been triggered but have not taken effect.
	Pending []PendingView
	// Ready lists client tasks waiting to run local code.
	Ready []ReadyClient
	// Storage samples the current storage snapshot on call. It is valid only
	// during Decide, which runs under the cluster's lock, and a policy that
	// never calls it never pays for the sample.
	Storage func() *storagecost.Snapshot
	// ObjectBits holds each base object's bits by ID, a retired object's 0,
	// from the walk that sampled the storage peaks after the last apply (or
	// lifecycle change). It is the cluster's own slice: read-only, and valid
	// only during Decide.
	ObjectBits []int
	// OutstandingWrites lists write operations that are invoked but not yet
	// returned, in invocation order.
	OutstandingWrites []oracle.WriteID
	// Clients lists the IDs of live (spawned, not finished, not crashed)
	// client tasks in spawn order; they are the candidates for a
	// KindCrashClient decision.
	Clients []int
}

// DecisionKind enumerates the moves available to a policy.
type DecisionKind int

// Decision kinds.
const (
	// KindApply lets the pending RMW identified by PendingIndex take effect
	// and delivers its response.
	KindApply DecisionKind = iota + 1
	// KindRun grants the run token to the ready client identified by Ticket,
	// letting it execute local steps until it blocks again.
	KindRun
	// KindStall makes no move. If nothing else can change (no running
	// client), the run is declared stuck.
	KindStall
	// KindCrashObject crashes the base object named by Object, permanently
	// (unless the cluster restarts it). The environment of the model may
	// crash up to f base objects.
	KindCrashObject
	// KindSuspendObject marks the base object named by Object unresponsive:
	// its pending RMWs are frozen until a KindResumeObject decision. This is
	// the "arbitrarily slow" adversary move.
	KindSuspendObject
	// KindResumeObject lifts a suspension set by KindSuspendObject.
	KindResumeObject
	// KindCrashClient crashes the client named by Client: it never takes
	// another step, though its already-triggered RMWs may still take effect.
	// The model permits any number of client crashes.
	KindCrashClient
)

// Decision is a policy's choice at one scheduling point.
type Decision struct {
	Kind         DecisionKind
	PendingIndex int
	Ticket       int64
	// Object names the base object of a crash/suspend/resume decision.
	Object int
	// Client names the victim of a KindCrashClient decision.
	Client int
}

// Policy decides, at every scheduling point, whether to let a pending RMW
// take effect, let a ready client run, or stall. The environment of the
// paper's model is exactly such a policy.
type Policy interface {
	Decide(v *View) Decision
}

// FairPolicy is the default scheduler: it always lets ready clients run
// first (lowest ticket, i.e. FIFO), and otherwise applies the
// longest-pending RMW whose target object is alive. Runs scheduled by
// FairPolicy are fair in the paper's sense: every triggered RMW on a correct
// base object eventually takes effect and every correct client gets
// infinitely many opportunities to take steps.
type FairPolicy struct{}

var _ Policy = FairPolicy{}

// Decide implements Policy.
func (FairPolicy) Decide(v *View) Decision {
	if len(v.Ready) > 0 {
		best := v.Ready[0]
		for _, r := range v.Ready[1:] {
			if r.Ticket < best.Ticket {
				best = r
			}
		}
		return Decision{Kind: KindRun, Ticket: best.Ticket}
	}
	bestIdx := -1
	var bestSeq int64
	for _, p := range v.Pending {
		if p.ObjectCrashed || p.ObjectSuspended || p.ObjectRetired {
			continue
		}
		if bestIdx == -1 || p.Seq < bestSeq {
			bestIdx, bestSeq = p.Index, p.Seq
		}
	}
	if bestIdx >= 0 {
		return Decision{Kind: KindApply, PendingIndex: bestIdx}
	}
	return Decision{Kind: KindStall}
}

// RandomPolicy chooses uniformly at random among all enabled moves (ready
// clients and pending RMWs on live objects). It is seeded, so runs are
// reproducible, and it is fair with probability 1, which makes it the
// scheduler of choice for randomized consistency testing.
type RandomPolicy struct {
	rng   *rand.Rand
	moves []move // the enabled moves of the last decision, kept for the next
}

// move is one enabled move of a RandomPolicy decision.
type move struct {
	kind   DecisionKind
	index  int
	ticket int64
}

var _ Policy = (*RandomPolicy)(nil)

// NewRandomPolicy returns a RandomPolicy with the given seed.
func NewRandomPolicy(seed int64) *RandomPolicy { return RandomPolicyOn(rand.New(rand.NewSource(seed))) }

// RandomPolicyOn returns a RandomPolicy that draws from rng, which its caller
// may draw from as well: a policy that makes its own moves before the random
// ones shares one generator with it, so one seed fixes the whole schedule.
func RandomPolicyOn(rng *rand.Rand) *RandomPolicy { return &RandomPolicy{rng: rng} }

// Decide implements Policy.
func (p *RandomPolicy) Decide(v *View) Decision {
	moves := p.moves[:0]
	for _, r := range v.Ready {
		moves = append(moves, move{kind: KindRun, ticket: r.Ticket})
	}
	for _, pd := range v.Pending {
		if pd.ObjectCrashed || pd.ObjectSuspended || pd.ObjectRetired {
			continue
		}
		moves = append(moves, move{kind: KindApply, index: pd.Index})
	}
	p.moves = moves
	if len(moves) == 0 {
		return Decision{Kind: KindStall}
	}
	m := moves[p.rng.Intn(len(moves))]
	return Decision{Kind: m.kind, PendingIndex: m.index, Ticket: m.ticket}
}

// DelayObjectsPolicy wraps an inner policy but refuses to apply RMWs on a
// fixed set of base objects, modelling objects that are arbitrarily slow
// (but not crashed). Experiments use it to stress quorum paths.
type DelayObjectsPolicy struct {
	Inner   Policy
	Delayed map[int]bool
}

var _ Policy = (*DelayObjectsPolicy)(nil)

// Decide implements Policy.
func (p *DelayObjectsPolicy) Decide(v *View) Decision {
	filtered := *v
	filtered.Pending = make([]PendingView, 0, len(v.Pending))
	for _, pd := range v.Pending {
		if p.Delayed[pd.Object] {
			continue
		}
		filtered.Pending = append(filtered.Pending, pd)
	}
	return p.Inner.Decide(&filtered)
}
