// Package dsys implements the paper's system model (Section 2): an
// asynchronous fault-prone shared memory consisting of n base objects that
// support atomic read-modify-write (RMW) access by an unbounded set of
// clients, where up to f base objects and any number of clients may crash.
//
// Clients are ordinary blocking Go code run in goroutines. Every RMW is
// *triggered* by a client and later *takes effect* atomically on its base
// object, at which point its response is delivered. In the default
// controlled mode, the moment at which each pending RMW takes effect is
// chosen by a pluggable scheduling Policy; this is exactly the adversarial
// power the model grants the environment, and it is what the lower-bound
// adversary of Section 4 exploits. A live mode applies RMWs immediately for
// throughput-oriented benchmarks.
//
// The runtime also implements the storage-cost bookkeeping of Section 3:
// base-object states and client-held blocks report the code blocks they
// contain, and a pending RMW is charged the set of blocks its parameters
// listed when it was triggered. A controlled cluster sends every RMW and
// answer as the bytes a wire carries (Wire), and checks at each delivery that
// the decoded RMW carries exactly the blocks its channel was charged for
// (WireFault). One walk over the charges serves two uses: after every
// scheduling step that applies an RMW it sums their bits into the run's peak
// (PeakStorage), and on request it lists them as a storagecost snapshot
// (SampleStorage, View.Storage).
package dsys

import (
	"errors"
	"fmt"

	"spacebounds/internal/oracle"
)

// BlockRef describes one code block held somewhere in the system: which
// write's oracle produced it (and with which block number), and its size in
// bits. Locations are stamped by the cluster when it aggregates reports.
type BlockRef struct {
	Source oracle.SourceTag
	Bits   int
}

// State is the algorithm-specific state of a base object. AppendBlocks
// appends every code block the state currently stores to dst and returns the
// extended slice; meta-data (timestamps, counters) is not reported and
// therefore not charged, per Definition 2. The cluster walks every state at
// every controlled scheduling step, into one buffer it keeps, so a state that
// only appends costs the walk no allocation.
type State interface {
	AppendBlocks(dst []BlockRef) []BlockRef
}

// RMW is a read-modify-write operation on a base object. Apply runs
// atomically with respect to all other RMWs on the same object and returns
// the response delivered to the triggering client. AppendBlocks appends the
// code blocks carried in the RMW's parameters to dst and returns the extended
// slice; while the RMW is pending these bits are charged to the channel (the
// paper counts in-flight information as part of client/base-object state,
// which is how algorithms that push cost into the network are still covered
// by the bound). A controlled trigger lists them into a buffer its pending
// entry keeps, so an RMW that only appends costs it no allocation.
type RMW interface {
	Apply(s State) (response any)
	AppendBlocks(dst []BlockRef) []BlockRef
}

// OpKind distinguishes the two high-level register operations.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// OpID identifies a high-level operation: the client performing it, the
// client-local sequence number, and its kind.
type OpID struct {
	Client int
	Seq    int
	Kind   OpKind
}

// WriteID converts a write operation's identity into the oracle's WriteID.
func (o OpID) WriteID() oracle.WriteID { return oracle.WriteID{Client: o.Client, Seq: o.Seq} }

// String implements fmt.Stringer.
func (o OpID) String() string { return fmt.Sprintf("%v(c%d#%d)", o.Kind, o.Client, o.Seq) }

// Call is the handle for one triggered RMW. It records whether the RMW has
// taken effect and, if so, its response.
type Call struct {
	Object   int
	Done     bool
	Response any
}

// Errors returned by cluster operations.
var (
	// ErrHalted is returned from waits when the cluster has been closed.
	ErrHalted = errors.New("dsys: cluster halted")
	// ErrStuck is returned when the scheduling policy refuses to make
	// further progress (the adversary has pinned the run) and a client is
	// still waiting for responses.
	ErrStuck = errors.New("dsys: run is stuck: scheduler refuses further progress")
	// ErrBadQuorum indicates a quorum size larger than the number of targets.
	ErrBadQuorum = errors.New("dsys: quorum larger than number of targets")
	// ErrUnknownObject indicates an RMW aimed at a non-existent base object.
	ErrUnknownObject = errors.New("dsys: unknown base object")
	// ErrQuorumUnavailable is returned when a round cannot gather the required
	// quorum of responses — too many of the targeted base objects are crashed,
	// retired, or unreachable. It wraps ErrStuck: a client waiting for a quorum
	// that cannot form is the live-mode reading of a stuck run, so existing
	// errors.Is(err, ErrStuck) checks keep matching.
	ErrQuorumUnavailable = fmt.Errorf("%w: quorum unavailable", ErrStuck)
	// ErrRetiredObject indicates an operation aimed at a base object that was
	// permanently decommissioned by reconfiguration.
	ErrRetiredObject = errors.New("dsys: base object retired")
	// ErrObjectDown indicates an RMW aimed at a crashed base object; the RMW
	// does not take effect until the object is restarted.
	ErrObjectDown = errors.New("dsys: base object crashed")
	// ErrRecovering indicates a read-only RMW refused by a node that restarted
	// with empty state and has not yet seen a mutating RMW on that object.
	ErrRecovering = errors.New("dsys: base object recovering")
	// ErrJournalFailed indicates an RMW refused because the attached journal
	// can no longer record it (a latched write or fsync error): the node stays
	// up for reads but acknowledges nothing it cannot make durable.
	ErrJournalFailed = errors.New("dsys: journal failed")
	// ErrApplyRefused indicates an RMW whose Apply found it could not make its
	// transition and left the object's state untouched — in a recovery replay,
	// a record that does not fit the state the log before it rebuilt.
	ErrApplyRefused = errors.New("dsys: RMW refused by its own Apply")
	// ErrRemote wraps transport-level failures that have no more specific
	// sentinel, so remote faults remain distinguishable from local ones.
	ErrRemote = errors.New("dsys: remote invocation failed")
)

// IdleReason explains why WaitIdle returned.
type IdleReason string

// WaitIdle outcomes.
const (
	// IdleQuiesced means all spawned client tasks finished and no applicable
	// RMW remains pending.
	IdleQuiesced IdleReason = "quiesced"
	// IdleStuck means the policy declined to schedule anything although
	// clients are still waiting (an adversarial stall), or the step budget
	// was exhausted.
	IdleStuck IdleReason = "stuck"
	// IdleHalted means Close was called.
	IdleHalted IdleReason = "halted"
)
