package dsys

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spacebounds/internal/metrics"
	"spacebounds/internal/oracle"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
)

// Mode selects how RMW scheduling is performed.
type Mode int

// Cluster modes.
const (
	// Controlled routes every pending RMW through the scheduling Policy; it
	// is deterministic for deterministic policies and client code, and it is
	// the mode the adversary and the experiments use.
	Controlled Mode = iota + 1
	// Live applies RMWs immediately when triggered (serialized per object),
	// trading scheduling control for throughput; used by benchmarks and
	// interactive examples.
	Live
)

type options struct {
	mode       Mode
	policy     Policy
	maxSteps   int
	dataBits   int
	accounting bool
	eventLog   func(Event)
	metrics    *metrics.Registry
	tracer     *trace.Tracer
}

// Option configures a Cluster.
type Option func(*options)

// WithPolicy sets the scheduling policy for controlled mode. The default is
// FairPolicy.
func WithPolicy(p Policy) Option { return func(o *options) { o.policy = p } }

// WithLiveMode switches the cluster to Live mode.
func WithLiveMode() Option { return func(o *options) { o.mode = Live } }

// WithControlledMode switches the cluster (back) to Controlled mode. It is
// how callers that receive live-mode defaults from a higher layer — the shard
// set in particular — opt into deterministic policy-driven scheduling, which
// is what the fault-schedule simulator runs on.
func WithControlledMode() Option { return func(o *options) { o.mode = Controlled } }

// WithMaxSteps bounds the number of scheduling decisions in controlled mode;
// exceeding the bound marks the run stuck. Zero means unbounded.
func WithMaxSteps(n int) Option { return func(o *options) { o.maxSteps = n } }

// WithDataBits records D (the register value size in bits) so that policies
// can classify writes into C⁻/C⁺.
func WithDataBits(d int) Option { return func(o *options) { o.dataBits = d } }

// WithoutAccounting disables per-step storage snapshots (controlled mode).
func WithoutAccounting() Option { return func(o *options) { o.accounting = false } }

// WithEventLog installs a callback invoked on every scheduling event; E6 uses
// it to print the adversary's Figure 3 schedule.
func WithEventLog(fn func(Event)) Option { return func(o *options) { o.eventLog = fn } }

// EventKind enumerates scheduling events.
type EventKind string

// Event kinds.
const (
	EventApply       EventKind = "apply"
	EventRun         EventKind = "run"
	EventStall       EventKind = "stall"
	EventCrash       EventKind = "crash"
	EventRestart     EventKind = "restart"
	EventSuspend     EventKind = "suspend"
	EventResume      EventKind = "resume"
	EventClientCrash EventKind = "client-crash"
	EventExtend      EventKind = "extend"
	EventRetire      EventKind = "retire"
)

// Event describes one scheduling event.
type Event struct {
	Step   int
	Kind   EventKind
	Object int
	Client int
	Op     OpID
}

type taskState int

const (
	taskReady taskState = iota + 1
	taskRunning
	taskBlocked
	taskDone
)

type clientTask struct {
	ticket    int64
	client    int
	state     taskState
	crashed   bool // the scheduler crashed this client; it never runs again
	waitCalls []*Call
	waitNeed  int
}

type pendingRMW struct {
	seq    int64
	object int
	op     OpID
	rmw    RMW
	call   *Call
	owner  *clientTask
}

type object struct {
	id      int
	state   State
	crashed atomic.Bool
	// suspended marks the object unresponsive-but-alive: pending RMWs on it
	// must not be applied until it is resumed. This is the "up to f
	// arbitrarily slow base objects" adversary of the model, as opposed to a
	// crash, which is permanent unless RestartObject is called.
	suspended atomic.Bool
	// retired marks the object permanently decommissioned by reconfiguration:
	// its region was drained and its state deallocated. A retired object never
	// applies RMWs again and its blocks no longer count toward storage
	// (Definition 2 — the bits physically left the system), which is how the
	// accounting stays exact when a reconfiguration replaces one region by
	// another. Unlike a crash, retirement cannot be undone.
	retired atomic.Bool
	applied int
	liveMu  sync.Mutex // the apply lock: held around every state transition
}

// apply lets one RMW take effect on the object and is the only way one does:
// every entry point — a live round, ApplyOne, the controlled coordinator's
// step, recovery replay — goes through it. The lifecycle check sits under the
// apply lock, so an object retired while the RMW waited for the lock still
// never mutates. A crashed object drops RMWs (ErrObjectDown) unless
// replay is set: recovery re-applies journaled RMWs while the object is still
// marked down — which is what keeps live clients out — and must not journal
// them a second time. The journal record is written under the lock, so its
// order per object is the apply order. A journal that has failed stops the
// RMWs it would have recorded before they mutate anything, and the one whose
// record was the failure goes unanswered (ErrJournalFailed). An Apply that
// answers with an error value refused itself and left the state as it was:
// nothing is counted or journaled (ErrApplyRefused). Nor is an answer that
// declares the state unchanged (NoChange), which reaches the caller all the
// same — unless the RMW was incomplete and this is a replay: a journal holds
// no such RMW, so the log and the state have diverged (ErrApplyRefused).
func (o *object) apply(c *Cluster, rmw RMW, tc trace.Context, replay bool) (any, error) {
	o.liveMu.Lock()
	defer o.liveMu.Unlock()
	if o.retired.Load() {
		return nil, ErrRetiredObject
	}
	if o.crashed.Load() && !replay {
		return nil, ErrObjectDown
	}
	var jour Journal
	if !replay {
		jour = c.journal()
	}
	if jour != nil {
		if err := refuses(jour, rmw); err != nil {
			return nil, err
		}
	}
	resp := rmw.Apply(o.state)
	if refusal, ok := resp.(error); ok {
		return nil, fmt.Errorf("%w: %v", ErrApplyRefused, refusal)
	}
	if nc, ok := resp.(NoChange); ok {
		if unchanged, incomplete := nc.NoChange(); incomplete && replay {
			return nil, fmt.Errorf("%w: the journaled %T is incomplete", ErrApplyRefused, rmw)
		} else if unchanged {
			return resp, nil
		}
	}
	o.applied++
	if jour != nil {
		if err := record(jour, o.id, rmw, tc); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// down reports whether the object currently drops RMWs. Rounds consult it to
// skip targets that cannot answer; apply makes the authoritative check.
func (o *object) down() bool { return o.crashed.Load() || o.retired.Load() }

// numClientStripes is the number of lock stripes for client bookkeeping
// (per-client sequence numbers and client-local block holdings). Striping
// keeps live-mode clients on different objects from serializing on a single
// cluster-wide mutex; 32 stripes comfortably exceed any benchmarked client
// count.
const numClientStripes = 32

// clientStripe guards the bookkeeping of the clients hashed onto it.
type clientStripe struct {
	mu     sync.Mutex
	seq    map[int]int
	blocks map[int][]BlockRef
}

// TaskHandle joins a spawned client task.
type TaskHandle struct {
	done chan struct{}
	err  error
}

// Wait blocks until the task's function returns and reports its error.
func (t *TaskHandle) Wait() error {
	<-t.done
	return t.err
}

// Cluster is the fault-prone shared memory: a set of base objects plus the
// scheduling machinery that decides when triggered RMWs take effect.
type Cluster struct {
	mu   sync.Mutex
	cond *sync.Cond
	opts options

	// objsPtr holds the base-object list. It is read lock-free on the live
	// fast path and grown copy-on-write (under c.mu) by ExtendObjects, so a
	// reconfiguration can add regions to a running cluster without making hot
	// clients take a lock. Use c.objs() to read it.
	objsPtr atomic.Pointer[[]*object]

	started     bool
	halted      bool
	idleReason  IdleReason
	steps       int
	nextSeq     int64
	nextTicket  int64
	pending     []*pendingRMW
	readyQ      []*clientTask
	runningTask *clientTask
	liveTasks   int

	// tasks lists every controlled-mode client task in spawn order; the
	// coordinator uses it to resolve KindCrashClient decisions against blocked
	// tasks (which are reachable neither through readyQ nor through pending
	// RMW ownership when their calls have all been applied).
	tasks []*clientTask

	// outstanding tracks invoked-but-unreturned high-level operations in
	// invocation order. It is maintained only in controlled mode, where the
	// scheduling policy (the adversary in particular) classifies operations;
	// live mode skips it so the hot path carries no global serialization.
	outstanding []OpID

	stripes [numClientStripes]clientStripe

	// liveHalted mirrors halted for ApplyOne, which consults it without taking
	// the cluster-wide mutex.
	liveHalted atomic.Bool

	// remote, when non-nil, makes this a client-side view of a cluster hosted
	// elsewhere: Invoke rounds are delegated to it instead of applying RMWs on
	// the placeholder local objects. Set by NewRemoteCluster.
	remote RoundInvoker

	// inst is the applies counter and the region table (see instruments).
	inst instruments

	// jour, when non-nil, journals every applied mutating RMW for durability
	// (see SetJournal). Atomic so attaching a journal never contends with
	// rounds in flight, and running without one costs a single pointer load.
	jour atomic.Pointer[Journal]

	acct *storagecost.Accountant
	wg   sync.WaitGroup
}

// stripeFor returns the bookkeeping stripe for a client ID.
func (c *Cluster) stripeFor(client int) *clientStripe {
	return &c.stripes[uint(client)%numClientStripes]
}

// objs returns the current base-object list. The returned slice is immutable:
// growth replaces the whole slice, so holding a snapshot across an operation
// is always safe.
func (c *Cluster) objs() []*object { return *c.objsPtr.Load() }

// NewCluster creates a cluster with the given initial base-object states.
// The default configuration is controlled mode with FairPolicy and storage
// accounting enabled.
func NewCluster(states []State, opts ...Option) *Cluster {
	o := options{mode: Controlled, policy: FairPolicy{}, accounting: true}
	for _, opt := range opts {
		opt(&o)
	}
	c := &Cluster{opts: o}
	c.cond = sync.NewCond(&c.mu)
	c.inst.applies = o.metrics.Counter(metricAppliesTotal, "RMWs applied to this node's base objects")
	c.inst.regions = make(map[int]*region)
	for i := range c.stripes {
		c.stripes[i].seq = make(map[int]int)
		c.stripes[i].blocks = make(map[int][]BlockRef)
	}
	objects := make([]*object, 0, len(states))
	for i, s := range states {
		objects = append(objects, &object{id: i, state: s})
	}
	c.objsPtr.Store(&objects)
	if o.accounting {
		c.acct = new(storagecost.Accountant)
	}
	if o.mode == Controlled {
		c.wg.Add(1)
		go c.coordinator()
	}
	return c
}

// N returns the number of base objects, retired ones included (object IDs are
// never reused).
func (c *Cluster) N() int { return len(c.objs()) }

// LiveObjectCount returns the number of base objects that have not been
// retired by reconfiguration.
func (c *Cluster) LiveObjectCount() int {
	n := 0
	for _, o := range c.objs() {
		if !o.retired.Load() {
			n++
		}
	}
	return n
}

// ExtendObjects appends new base objects holding the given initial states to
// a running cluster and returns the global ID of the first one. This is the
// growth half of dynamic reconfiguration: a new shard region comes into
// existence with its register's initial states, and storage accounting covers
// it from the moment it exists. The object list is replaced copy-on-write, so
// concurrent live-path clients keep working on their snapshot.
func (c *Cluster) ExtendObjects(states []State) (int, error) {
	if len(states) == 0 {
		return 0, fmt.Errorf("dsys: ExtendObjects with no states")
	}
	c.mu.Lock()
	cur := c.objs()
	base := len(cur)
	grown := make([]*object, base, base+len(states))
	copy(grown, cur)
	for i, s := range states {
		grown = append(grown, &object{id: base + i, state: s})
	}
	c.objsPtr.Store(&grown)
	c.idleReason = ""
	step := c.steps
	eventLog := c.opts.eventLog
	c.mu.Unlock()
	c.cond.Broadcast()
	if eventLog != nil {
		eventLog(Event{Step: step, Kind: EventExtend, Object: base})
	}
	return base, nil
}

// RetireObjects permanently decommissions the contiguous object region
// [base, base+span): the objects never apply RMWs again and their states stop
// counting toward storage, exactly as if the nodes had been unplugged after a
// drain. Retirement is the terminal lifecycle state of a region; callers must
// only retire regions whose shard has been drained (no routed operations), or
// in-flight operations on the region will fail their quorums.
func (c *Cluster) RetireObjects(base, span int) error {
	c.mu.Lock()
	objects := c.objs()
	if base < 0 || span < 1 || base+span > len(objects) {
		c.mu.Unlock()
		return fmt.Errorf("%w: retire region [%d,%d)", ErrUnknownObject, base, base+span)
	}
	for i := base; i < base+span; i++ {
		objects[i].retired.Store(true)
	}
	c.idleReason = ""
	step := c.steps
	eventLog := c.opts.eventLog
	c.mu.Unlock()
	c.cond.Broadcast()
	if eventLog != nil {
		eventLog(Event{Step: step, Kind: EventRetire, Object: base})
	}
	return nil
}

// Mode returns the cluster's scheduling mode.
func (c *Cluster) Mode() Mode { return c.opts.mode }

// Accountant returns the storage accountant (nil if accounting is disabled).
func (c *Cluster) Accountant() *storagecost.Accountant { return c.acct }

// Steps returns the number of scheduling decisions made so far.
func (c *Cluster) Steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// LogicalTime returns the cluster's deterministic logical clock: the number
// of scheduling decisions made so far. In controlled mode it advances only
// when the coordinator takes a step, so any value observed by client code is
// a pure function of the schedule — the fault simulator feeds it to the
// history recorder so that recorded operation intervals (and therefore
// checker verdicts) are replayable byte for byte.
func (c *Cluster) LogicalTime() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.steps)
}

// Start releases the coordinator. Spawn may be called before Start so that an
// experiment can register all of its initial operations and obtain a
// deterministic schedule; Spawn after Start is also permitted.
func (c *Cluster) Start() {
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Close halts the cluster: blocked clients are released with ErrHalted, the
// coordinator exits, and all spawned goroutines are joined.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.halted = true
	c.idleReason = IdleHalted
	c.mu.Unlock()
	c.liveHalted.Store(true)
	c.cond.Broadcast()
	c.wg.Wait()
	c.closeRemote()
}

// CrashObject crashes base object id: pending and future RMWs on it never
// take effect. Crashing more than f of the n = 2f+k objects removes the
// ability to form quorums, exactly as in the model.
func (c *Cluster) CrashObject(id int) error {
	c.mu.Lock()
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	if objects[id].retired.Load() {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrRetiredObject, id)
	}
	objects[id].crashed.Store(true)
	c.idleReason = ""
	step := c.steps
	eventLog := c.opts.eventLog
	c.mu.Unlock()
	c.cond.Broadcast()
	if eventLog != nil {
		eventLog(Event{Step: step, Kind: EventCrash, Object: id})
	}
	return nil
}

// CrashedObjects returns the IDs of crashed base objects.
func (c *Cluster) CrashedObjects() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, o := range c.objs() {
		if o.crashed.Load() {
			out = append(out, o.id)
		}
	}
	return out
}

// RestartObject brings a crashed base object back: future RMWs on it apply
// again, with the object's state as it was at the moment of the crash
// (fail-recover). RMWs that were dropped while the object was down stay lost,
// exactly like messages to a down node. Live-mode fault injection uses it to
// model crash/restart churn.
func (c *Cluster) RestartObject(id int) error {
	c.mu.Lock()
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	if objects[id].retired.Load() {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrRetiredObject, id)
	}
	objects[id].crashed.Store(false)
	c.idleReason = ""
	step := c.steps
	eventLog := c.opts.eventLog
	c.mu.Unlock()
	c.cond.Broadcast()
	if eventLog != nil {
		eventLog(Event{Step: step, Kind: EventRestart, Object: id})
	}
	return nil
}

// SuspendObject marks a base object unresponsive: pending RMWs on it are not
// applied until ResumeObject. Unlike a crash, suspension is temporary and
// models the "arbitrarily slow but correct" base objects the paper's
// adversary exploits. Scheduling policies normally drive suspension through
// KindSuspendObject decisions so the fault shows up in the deterministic
// schedule; the method is also safe to call directly (e.g. from tests).
func (c *Cluster) SuspendObject(id int) error {
	return c.setSuspended(id, true, EventSuspend)
}

// ResumeObject clears a suspension set by SuspendObject.
func (c *Cluster) ResumeObject(id int) error {
	return c.setSuspended(id, false, EventResume)
}

func (c *Cluster) setSuspended(id int, suspended bool, kind EventKind) error {
	c.mu.Lock()
	objects := c.objs()
	if id < 0 || id >= len(objects) {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	objects[id].suspended.Store(suspended)
	c.idleReason = ""
	step := c.steps
	eventLog := c.opts.eventLog
	c.mu.Unlock()
	c.cond.Broadcast()
	if eventLog != nil {
		eventLog(Event{Step: step, Kind: kind, Object: id})
	}
	return nil
}

// SuspendedObjects returns the IDs of currently suspended base objects.
func (c *Cluster) SuspendedObjects() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, o := range c.objs() {
		if o.suspended.Load() {
			out = append(out, o.id)
		}
	}
	return out
}

// CrashedClients returns the client IDs crashed by the scheduler, in crash
// order (controlled mode only).
func (c *Cluster) CrashedClients() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	seen := make(map[int]bool)
	for _, t := range c.tasks {
		if t.crashed && !seen[t.client] {
			seen[t.client] = true
			out = append(out, t.client)
		}
	}
	return out
}

// crashClientLocked marks every live task of the given client as crashed: the
// task never receives the run token again, is never made ready by a completed
// RMW, and no longer counts as live (so runs with crashed clients still
// quiesce). Its already-triggered RMWs stay pending — in-flight messages take
// effect even after the sender dies, exactly as in the model. The blocked
// goroutine itself is released with ErrHalted when the cluster closes.
// Callers must hold c.mu. It reports whether any task was crashed.
func (c *Cluster) crashClientLocked(client int) bool {
	hit := false
	for _, t := range c.tasks {
		if t.client != client || t.crashed || t.state == taskDone || t.state == taskRunning {
			continue
		}
		if t.state == taskReady {
			c.removeReadyLocked(t)
		}
		t.crashed = true
		c.liveTasks--
		hit = true
	}
	return hit
}

// Spawn runs fn as a client task for the given client ID and returns a join
// handle. In controlled mode the task runs only when the scheduling policy
// grants it the run token. The handle sees the whole cluster.
func (c *Cluster) Spawn(clientID int, fn func(h *ClientHandle) error) *TaskHandle {
	return c.SpawnScoped(clientID, 0, c.N(), fn)
}

// SpawnScoped is Spawn restricted to the contiguous object region
// [base, base+span): the handle's N() reports span and its object IDs are
// region-local. Shards use it to multiplex several register emulations over
// one cluster — a register built for n objects runs unchanged inside an
// n-object region.
func (c *Cluster) SpawnScoped(clientID, base, span int, fn func(h *ClientHandle) error) *TaskHandle {
	th := &TaskHandle{done: make(chan struct{})}
	if c.opts.mode == Live {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer close(th.done)
			h := &ClientHandle{c: c, id: clientID, base: base, span: span}
			th.err = fn(h)
		}()
		return th
	}
	c.mu.Lock()
	t := &clientTask{ticket: c.nextTicket, client: clientID, state: taskReady}
	c.nextTicket++
	c.readyQ = append(c.readyQ, t)
	c.tasks = append(c.tasks, t)
	c.liveTasks++
	c.idleReason = ""
	c.mu.Unlock()
	c.cond.Broadcast()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(th.done)
		h := &ClientHandle{c: c, id: clientID, task: t, base: base, span: span}
		// Wait for the first grant of the run token.
		c.mu.Lock()
		for t.state != taskRunning && !c.halted {
			c.cond.Wait()
		}
		if t.state != taskRunning {
			t.state = taskDone
			if !t.crashed {
				// Crashed tasks were already removed from the ready queue and
				// subtracted from the live count at crash time.
				c.removeReadyLocked(t)
				c.liveTasks--
			}
			c.mu.Unlock()
			c.cond.Broadcast()
			th.err = ErrHalted
			return
		}
		c.mu.Unlock()

		th.err = fn(h)

		c.mu.Lock()
		t.state = taskDone
		if c.runningTask == t {
			c.runningTask = nil
		}
		if !t.crashed {
			c.liveTasks--
		}
		c.mu.Unlock()
		c.cond.Broadcast()
	}()
	return th
}

// RunScoped executes fn as a client over the object region [base, base+span)
// and returns its error. In live mode it is the batched fast path: fn runs
// inline in the caller's goroutine — no task goroutine, no join channel, no
// cluster-wide lock — so concurrent callers on disjoint regions only ever
// contend on the per-object apply mutexes. The call registers with the
// cluster's join group, so Close still waits for in-flight operations. The
// handle comes from a pool and goes back to it when fn returns, so neither it
// nor its answer slots may be kept past that. In controlled mode it
// degenerates to SpawnScoped followed by Wait.
func (c *Cluster) RunScoped(clientID, base, span int, fn func(h *ClientHandle) error) error {
	if c.opts.mode == Live {
		c.wg.Add(1)
		defer c.wg.Done()
		h := liveHandles.Get().(*ClientHandle)
		h.c, h.id, h.base, h.span = c, clientID, base, span
		err := fn(h)
		putLiveHandle(h)
		return err
	}
	return c.SpawnScoped(clientID, base, span, fn).Wait()
}

// liveHandles holds the handles live RunScoped calls run under. A handle in
// the pool is zero but for the capacity of its slots, which are all nil.
var liveHandles = sync.Pool{New: func() any { return new(ClientHandle) }}

// putLiveHandle zeroes a handle — no cluster, context, answer or RMW an answer
// points into stays reachable from it — and returns it to the pool.
func putLiveHandle(h *ClientHandle) {
	slots := h.slots[:cap(h.slots)]
	clear(slots)
	*h = ClientHandle{slots: slots[:0]}
	liveHandles.Put(h)
}

// WaitIdle blocks until the cluster can make no further progress and reports
// why: all tasks finished (IdleQuiesced), the policy stalled or the step
// budget ran out while clients are still waiting (IdleStuck), or Close was
// called (IdleHalted). In live mode there is no central scheduler, so WaitIdle
// returns IdleQuiesced immediately; callers join their task handles instead.
func (c *Cluster) WaitIdle() IdleReason {
	if c.opts.mode == Live {
		return IdleQuiesced
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.idleReason == "" {
		c.cond.Wait()
	}
	return c.idleReason
}

// SampleStorage computes and records a storage snapshot outside the normal
// per-step sampling; it is the way live-mode callers observe storage cost.
func (c *Cluster) SampleStorage() *storagecost.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.snapshotLocked()
	if c.acct != nil {
		c.acct.Observe(snap)
	}
	return snap
}

// snapshotLocked aggregates the storage reports of base objects, client-local
// holdings, and pending RMW parameters. Callers must hold c.mu; each object's
// apply lock and the stripe locks are taken one at a time underneath it, so
// live-mode snapshots never observe a state mid-Apply (the sample as a whole
// is still advisory in live mode: objects are sampled one after another while
// operations may be in flight).
func (c *Cluster) snapshotLocked() *storagecost.Snapshot {
	objects := c.objs()
	reporters := make([]storagecost.Reporter, 0, len(objects)+len(c.pending))
	for _, o := range objects {
		// Retired objects were decommissioned by reconfiguration: their state
		// was deallocated with them, so none of their bits count any more.
		if o.retired.Load() {
			continue
		}
		o.liveMu.Lock()
		refs := o.state.Blocks()
		o.liveMu.Unlock()
		reporters = append(reporters, blockReporter{
			loc:  storagecost.Location{Kind: storagecost.BaseObject, ID: o.id},
			refs: refs,
		})
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		for client, refs := range st.blocks {
			reporters = append(reporters, blockReporter{
				loc:  storagecost.Location{Kind: storagecost.Client, ID: client},
				refs: refs,
			})
		}
		st.mu.Unlock()
	}
	for _, p := range c.pending {
		reporters = append(reporters, blockReporter{
			loc:  storagecost.Location{Kind: storagecost.Channel, ID: p.op.Client},
			refs: p.rmw.Blocks(),
		})
	}
	if j := c.journal(); j != nil {
		reporters = append(reporters, durableReporter{j: j})
	}
	return storagecost.Collect(reporters, nil)
}

// outstandingWritesLocked returns outstanding write operations in invocation
// order. Callers must hold c.mu.
func (c *Cluster) outstandingWritesLocked() []oracle.WriteID {
	var out []oracle.WriteID
	for _, op := range c.outstanding {
		if op.Kind == OpWrite {
			out = append(out, op.WriteID())
		}
	}
	return out
}

// OutstandingOps returns the currently outstanding high-level operations in
// invocation order. Outstanding operations are tracked in controlled mode
// only (they exist for scheduling policies); in live mode the result is
// always empty.
func (c *Cluster) OutstandingOps() []OpID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]OpID, len(c.outstanding))
	copy(out, c.outstanding)
	return out
}

func (c *Cluster) removeReadyLocked(t *clientTask) {
	for i, r := range c.readyQ {
		if r == t {
			c.readyQ = append(c.readyQ[:i], c.readyQ[i+1:]...)
			return
		}
	}
}
