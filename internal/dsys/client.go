package dsys

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spacebounds/internal/trace"
)

// ClientHandle is a client's interface to the cluster. Handles are created by
// Spawn, SpawnScoped or RunScoped and must only be used from their task's
// goroutine. A handle is scoped to the contiguous object region
// [base, base+span): N() reports span and all object IDs it accepts and
// returns are region-local, which is how several register emulations
// multiplex over one cluster without knowing about each other.
type ClientHandle struct {
	c    *Cluster
	id   int
	task *clientTask // nil in live mode
	base int
	span int

	// ctx bounds remote rounds (deadline/cancellation plumbed through the
	// transport's Invoke). Nil means context.Background(). The in-process
	// engines ignore it: controlled-mode schedules must stay deterministic.
	ctx context.Context

	// slots holds the answers of the handle's last round, one per object of
	// the scope: what Invoke returns. The handle keeps the array from round
	// to round, so a round allocates no result.
	slots []any

	currentOp OpID
}

// ID returns the client's identifier.
func (h *ClientHandle) ID() int { return h.id }

// Sub derives a handle for the same client and task, scoped to the contiguous
// sub-region [base, base+span) of this handle's scope (for a whole-cluster
// handle, absolute object IDs). It is how one client task runs register
// operations against several shard regions — the reconfiguration migration
// writer reads the old region and seeds the successors through Sub handles —
// without spawning a task per region, which matters in controlled mode where
// a task can only join another task by busy-waiting.
//
// A region-scoped parent (base > 0) can only narrow its own scope — handing a
// shard's handle out must not let it reach other shards' objects. A
// whole-cluster parent (base 0) may sub-scope anywhere in the *current*
// cluster, including regions grown after the parent was created: routing
// clients and the migration writer hold whole-cluster handles precisely so
// they can follow reconfiguration. The derived handle shares the parent's
// task and must not be used concurrently with it.
func (h *ClientHandle) Sub(base, span int) (*ClientHandle, error) {
	limit := h.span
	if h.base == 0 {
		limit = h.c.N()
	}
	if base < 0 || span < 1 || base+span > limit {
		return nil, fmt.Errorf("%w: sub-scope [%d,%d)", ErrUnknownObject, base, base+span)
	}
	return &ClientHandle{c: h.c, id: h.id, task: h.task, base: h.base + base, span: span, ctx: h.ctx}, nil
}

// WithContext returns a handle for the same client, task and scope whose
// remote rounds are bounded by ctx: a transport-backed Invoke observes the
// context's deadline and cancellation. The in-process engines are unaffected.
// The derived handle shares the parent's task and answer slots and must not
// be used concurrently with it: a round of either ends the validity of the
// other's last answers.
func (h *ClientHandle) WithContext(ctx context.Context) *ClientHandle {
	dup := *h
	dup.ctx = ctx
	return &dup
}

// context returns the handle's round context, defaulting to Background.
func (h *ClientHandle) context() context.Context {
	if h.ctx != nil {
		return h.ctx
	}
	return context.Background()
}

// InProcess reports whether the handle's base objects live in this process and
// so retain the very RMW values a round hands them, blocks included; a remote
// cluster's nodes keep what they decode from the wire.
func (h *ClientHandle) InProcess() bool { return h.c.remote == nil }

// N returns the number of base objects visible to this handle (the scope's
// span; the whole cluster for handles created by Spawn).
func (h *ClientHandle) N() int { return h.span }

// BeginOp marks the start of a high-level operation of the given kind and
// returns its identity. In controlled mode the cluster tracks outstanding
// operations so that policies (the adversary in particular) can classify
// them; in live mode only the striped per-client sequence counter is touched.
func (h *ClientHandle) BeginOp(kind OpKind) OpID {
	c := h.c
	st := c.stripeFor(h.id)
	st.mu.Lock()
	st.seq[h.id]++
	op := OpID{Client: h.id, Seq: st.seq[h.id], Kind: kind}
	st.mu.Unlock()
	h.currentOp = op
	if c.opts.mode == Controlled {
		c.mu.Lock()
		c.outstanding = append(c.outstanding, op)
		c.mu.Unlock()
	}
	return op
}

// EndOp marks the end of the client's current high-level operation and clears
// any client-local block holdings registered for it.
func (h *ClientHandle) EndOp() {
	c := h.c
	if c.opts.mode == Controlled {
		c.mu.Lock()
		for i, op := range c.outstanding {
			if op == h.currentOp {
				c.outstanding = append(c.outstanding[:i], c.outstanding[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}
	st := c.stripeFor(h.id)
	st.mu.Lock()
	delete(st.blocks, h.id)
	st.mu.Unlock()
	h.currentOp = OpID{}
}

// SetLocalBlocks registers the code blocks the client currently holds in its
// local state (e.g. the encoded WriteSet of an in-progress write) so the
// storage accountant can charge them to the client's location. The handle
// keeps refs itself: the caller hands over a slice of its own making and does
// not write to it again.
func (h *ClientHandle) SetLocalBlocks(refs []BlockRef) {
	st := h.c.stripeFor(h.id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(refs) == 0 {
		delete(st.blocks, h.id)
		return
	}
	st.blocks[h.id] = refs
}

// InvokeAll triggers makeRMW(i) on every base object i in the handle's scope
// and waits until at least quorum of them have taken effect. It returns the
// responses of all RMWs that have taken effect by the time the client is
// rescheduled, as Invoke does. The remaining RMWs stay pending and may take
// effect later.
func (h *ClientHandle) InvokeAll(makeRMW func(obj int) RMW, quorum int) ([]any, error) {
	// No engine keeps targets past the round, so a scope of up to
	// len(onStack) objects — 2f+k of them, for every register this repository
	// runs — lists them without allocating.
	var onStack [32]int
	targets := onStack[:0]
	if h.span > len(onStack) {
		targets = make([]int, 0, h.span)
	}
	for i := 0; i < h.span; i++ {
		targets = append(targets, i)
	}
	return h.Invoke(targets, makeRMW, quorum)
}

// Invoke triggers makeRMW(obj) on each target object and waits until at least
// quorum responses have been delivered (controlled mode) or applied (live
// mode). Targets are scope-local object IDs. The responses come back indexed
// by them: a slice of length N(), nil where no answer arrived. It is the
// handle's own — its slots — and stays valid until the handle's next round, or
// until RunScoped returns the handle; a caller that needs an answer longer
// copies it out. A remote round of a posted kind returns nil (RoundInvoker).
// In controlled mode the wait can only end early if the cluster is closed, in
// which case ErrHalted is returned.
func (h *ClientHandle) Invoke(targets []int, makeRMW func(obj int) RMW, quorum int) ([]any, error) {
	if quorum > len(targets) {
		return nil, fmt.Errorf("%w: quorum %d, targets %d", ErrBadQuorum, quorum, len(targets))
	}
	for _, obj := range targets {
		if obj < 0 || obj >= h.span {
			return nil, fmt.Errorf("%w: %d", ErrUnknownObject, obj)
		}
	}
	resp := h.answers()
	hh, sp := h.traceRound()
	var start time.Time
	if h.c.opts.metrics != nil {
		start = time.Now()
	}
	resp, err := hh.dispatch(targets, makeRMW, quorum, resp)
	if h.c.opts.metrics != nil {
		h.c.region(h.base).observeRound(start, resp, err)
	}
	h.finishRound(&sp)
	return resp, err
}

// answers empties the handle's slots for a new round and returns them, one
// per object of the scope.
func (h *ClientHandle) answers() []any {
	if cap(h.slots) < h.span {
		h.slots = make([]any, h.span)
	} else {
		h.slots = h.slots[:h.span]
		clear(h.slots)
	}
	return h.slots
}

// dispatch routes a validated round to the engine variant behind the handle.
// The engine writes each answer into resp at its object's index and returns
// resp, or nil when the round ended with no answers to give.
func (h *ClientHandle) dispatch(targets []int, makeRMW func(obj int) RMW, quorum int, resp []any) ([]any, error) {
	if h.c.remote != nil {
		return h.invokeRemote(targets, makeRMW, quorum, resp)
	}
	if h.c.opts.mode == Live {
		return h.invokeLive(targets, makeRMW, quorum, resp)
	}
	return h.invokeControlled(targets, makeRMW, quorum, resp)
}

// invokeRemote delegates the round to the remote cluster's transport:
// scope-local targets are translated to global object IDs on the way out, and
// each answer is copied into its scope-local slot on the way back, so
// region-scoped register code runs unchanged against a cluster hosted in other
// processes. The translation allocates nothing: the global IDs and the RMW
// factory over them are a remoteRound's, borrowed for the round.
func (h *ClientHandle) invokeRemote(targets []int, makeRMW func(obj int) RMW, quorum int, resp []any) ([]any, error) {
	r := remoteRounds.Get().(*remoteRound)
	r.base, r.makeRMW = h.base, makeRMW
	for _, obj := range targets {
		r.global = append(r.global, h.base+obj)
	}
	got, err := h.c.remote.InvokeRound(h.context(), h.id, r.global, r.globalRMW, quorum)
	r.global, r.makeRMW = r.global[:0], nil
	remoteRounds.Put(r)
	if got == nil && err == nil {
		return nil, nil // a posted round
	}
	for g, a := range got {
		resp[g-h.base] = a
	}
	return resp, err
}

// remoteRound is what invokeRemote hands the transport for one round of a
// region-scoped handle: the targets as global IDs and an RMW factory that
// takes them. A RoundInvoker keeps neither past its return, so rounds borrow
// one from remoteRounds instead of allocating both.
type remoteRound struct {
	base      int
	makeRMW   func(obj int) RMW // the round's, over scope-local IDs
	global    []int
	globalRMW func(g int) RMW // r.rmw, bound once
}

func (r *remoteRound) rmw(g int) RMW { return r.makeRMW(g - r.base) }

var remoteRounds = sync.Pool{New: func() any {
	r := new(remoteRound)
	r.globalRMW = r.rmw
	return r
}}

// invokeControlled registers pending RMWs and blocks until the scheduling
// policy has applied a quorum of them and granted the client the run token
// again.
func (h *ClientHandle) invokeControlled(targets []int, makeRMW func(obj int) RMW, quorum int, resp []any) ([]any, error) {
	c := h.c
	t := h.task
	c.mu.Lock()
	calls := make([]*Call, 0, len(targets))
	for _, obj := range targets {
		rmw := makeRMW(obj)
		call := &Call{Object: obj}
		calls = append(calls, call)
		c.pending = append(c.pending, &pendingRMW{
			seq:    c.nextSeq,
			object: h.base + obj,
			op:     h.currentOp,
			rmw:    rmw,
			call:   call,
			owner:  t,
		})
		c.nextSeq++
	}
	t.waitCalls = calls
	t.waitNeed = quorum
	t.state = taskBlocked
	c.runningTask = nil
	c.idleReason = ""
	c.cond.Broadcast()
	for t.state != taskRunning {
		if c.halted {
			t.waitCalls, t.waitNeed = nil, 0
			c.mu.Unlock()
			c.cond.Broadcast()
			return nil, ErrHalted
		}
		c.cond.Wait()
	}
	for _, call := range calls {
		if call.Done {
			resp[call.Object] = call.Response
		}
	}
	t.waitCalls, t.waitNeed = nil, 0
	c.mu.Unlock()
	return resp, nil
}

// invokeLive is the live-mode fast path: it applies the whole round of RMWs
// immediately, serialized only by the per-object apply mutexes. Crashed
// objects are skipped via an atomic flag, so the cluster-wide mutex is never
// touched — concurrent clients whose scopes cover disjoint objects share no
// locks at all. It returns an error if fewer than quorum objects are alive,
// which models a client waiting forever for a quorum that cannot form.
//
// A round short of its quorum makes one more pass over the targets it skipped
// as down before it gives up: a skipped object may have restarted while the
// loop went on. Without it a round that skips A, then meets B down because A
// restarted and B crashed in between, fails although no more than f objects
// were ever down at once. makeRMW is still called at most once per object.
func (h *ClientHandle) invokeLive(targets []int, makeRMW func(obj int) RMW, quorum int, resp []any) ([]any, error) {
	c := h.c
	objects := c.objs()
	tc := trace.FromContext(h.ctx)
	answered := 0
	var skipped []int
	for pass := 0; pass < 2; pass++ {
		for _, objID := range targets {
			obj := objects[h.base+objID]
			if obj.down() {
				if pass == 0 {
					skipped = append(skipped, objID)
				}
				continue
			}
			if r, err := obj.apply(c, makeRMW(objID), tc, false); err == nil {
				resp[objID] = r
				answered++
			}
		}
		if answered >= quorum || len(skipped) == 0 {
			break
		}
		targets = skipped
	}
	if answered < quorum {
		return resp, fmt.Errorf("%w: only %d of %d required responses available", ErrQuorumUnavailable, answered, quorum)
	}
	return resp, nil
}

// Yield releases the run token and immediately requests it back, giving the
// scheduling policy an opportunity to interleave other clients or RMWs. The
// simulator's workload tasks and the reconfiguration driver call it while they
// wait on one another, so a controlled run cannot livelock the coordinator; no
// register calls it — a retrying reader gives up the token in every round it
// invokes. It is a no-op in live mode.
func (h *ClientHandle) Yield() error {
	if h.c.opts.mode == Live {
		return nil
	}
	c := h.c
	t := h.task
	c.mu.Lock()
	defer c.mu.Unlock()
	t.state = taskReady
	t.ticket = c.nextTicket
	c.nextTicket++
	c.readyQ = append(c.readyQ, t)
	c.runningTask = nil
	c.idleReason = ""
	c.cond.Broadcast()
	for t.state != taskRunning {
		if c.halted {
			return ErrHalted
		}
		c.cond.Wait()
	}
	return nil
}
