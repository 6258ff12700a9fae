package dsys

import (
	"slices"

	"spacebounds/internal/trace"
)

// coordinator is the controlled-mode scheduling loop. It runs while the
// cluster is open and, whenever no client task holds the run token, asks the
// policy for the next move: let a pending RMW take effect, let a ready client
// run, or stall. It is the implementation of the model's "environment".
func (c *Cluster) coordinator() {
	defer c.wg.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.halted {
			c.idleReason = IdleHalted
			c.cond.Broadcast()
			return
		}
		if !c.started || c.runningTask != nil {
			c.cond.Wait()
			continue
		}
		if len(c.readyQ) == 0 && !c.hasApplicablePendingLocked() {
			// Nothing the policy could schedule.
			if len(c.live) == 0 {
				c.idleReason = IdleQuiesced
			} else {
				// Clients exist but are all blocked on RMWs that can never be
				// applied (e.g. targets crashed): the run is stuck.
				c.idleReason = IdleStuck
			}
			c.cond.Broadcast()
			c.cond.Wait()
			continue
		}
		if c.opts.maxSteps > 0 && c.steps >= c.opts.maxSteps {
			c.idleReason = IdleStuck
			c.cond.Broadcast()
			c.cond.Wait()
			continue
		}

		view := c.buildViewLocked()
		decision := c.opts.policy.Decide(view)
		c.steps++
		switch decision.Kind {
		case KindRun:
			t := c.takeReadyLocked(decision.Ticket)
			if t == nil {
				// The policy named an unknown ticket; treat as a stall so a
				// buggy policy cannot spin the coordinator.
				c.stallLocked()
				continue
			}
			t.state = taskRunning
			c.runningTask = t
			c.idleReason = ""
			if c.opts.eventLog != nil {
				c.emitEvent(Event{Step: c.steps, Kind: EventRun, Client: t.client})
			}
			c.cond.Broadcast()
		case KindApply:
			if decision.PendingIndex < 0 || decision.PendingIndex >= len(c.pending) {
				c.stallLocked()
				continue
			}
			if c.objs()[c.pending[decision.PendingIndex].object].suspended.Load() {
				// Suspended objects do not apply RMWs; a policy that picks one
				// anyway is treated like one that made no move.
				c.stallLocked()
				continue
			}
			c.applyPendingLocked(decision.PendingIndex)
		case KindCrashObject:
			if decision.Object < 0 || decision.Object >= c.N() {
				c.stallLocked()
				continue
			}
			c.objs()[decision.Object].crashed.Store(true)
			if c.opts.eventLog != nil {
				c.emitEvent(Event{Step: c.steps, Kind: EventCrash, Object: decision.Object})
			}
			c.cond.Broadcast()
		case KindSuspendObject, KindResumeObject:
			if decision.Object < 0 || decision.Object >= c.N() {
				c.stallLocked()
				continue
			}
			suspend := decision.Kind == KindSuspendObject
			c.objs()[decision.Object].suspended.Store(suspend)
			if c.opts.eventLog != nil {
				kind := EventResume
				if suspend {
					kind = EventSuspend
				}
				c.emitEvent(Event{Step: c.steps, Kind: kind, Object: decision.Object})
			}
			c.cond.Broadcast()
		case KindCrashClient:
			if !c.crashClientLocked(decision.Client) {
				c.stallLocked()
				continue
			}
			if c.opts.eventLog != nil {
				c.emitEvent(Event{Step: c.steps, Kind: EventClientCrash, Client: decision.Client})
			}
			c.cond.Broadcast()
		default:
			c.stallLocked()
		}
	}
}

// stallLocked records that the policy made no move and parks the coordinator
// until the situation changes (new spawn, crash, or Close).
func (c *Cluster) stallLocked() {
	c.idleReason = IdleStuck
	if c.opts.eventLog != nil {
		c.emitEvent(Event{Step: c.steps, Kind: EventStall})
	}
	c.cond.Broadcast()
	c.cond.Wait()
}

// hasApplicablePendingLocked reports whether any pending RMW targets a live
// (neither crashed nor retired) object.
func (c *Cluster) hasApplicablePendingLocked() bool {
	objects := c.objs()
	for i := range c.pending {
		if !objects[c.pending[i].object].down() {
			return true
		}
	}
	return false
}

// takeReadyLocked removes and returns the ready task with the given ticket.
func (c *Cluster) takeReadyLocked(ticket int64) *clientTask {
	for i, t := range c.readyQ {
		if t.ticket == ticket {
			c.readyQ = append(c.readyQ[:i], c.readyQ[i+1:]...)
			return t
		}
	}
	return nil
}

// buildViewLocked refills the cluster's one View for the next decision: the
// policy reads it only during Decide, so no list in it is allocated afresh.
func (c *Cluster) buildViewLocked() *View {
	v := &c.view
	v.Step = c.steps
	v.ObjectBits = c.objectBits
	v.OutstandingWrites = c.appendOutstandingWritesLocked(v.OutstandingWrites[:0])
	objects := c.objs()
	v.Pending = v.Pending[:0]
	for i := range c.pending {
		p := &c.pending[i]
		o := objects[p.object]
		v.Pending = append(v.Pending, PendingView{
			Index:           i,
			Seq:             p.seq,
			Object:          p.object,
			ObjectCrashed:   o.crashed.Load(),
			ObjectSuspended: o.suspended.Load(),
			ObjectRetired:   o.retired.Load(),
			Client:          p.op.Client,
			Op:              p.op,
		})
	}
	v.Ready = v.Ready[:0]
	for _, t := range c.readyQ {
		v.Ready = append(v.Ready, ReadyClient{Ticket: t.ticket, Client: t.client})
	}
	v.Clients = v.Clients[:0]
	for _, t := range c.live {
		if !slices.Contains(v.Clients, t.client) {
			v.Clients = append(v.Clients, t.client)
		}
	}
	return v
}

// applyPendingLocked lets the pending RMW at the given index take effect:
// the object receives it from the wire, the state change is applied
// atomically, the storage peaks take the new totals, and if the RMW's round is
// still open its answer crosses back into the owner's call, whose task is
// made ready again once its quorum is satisfied. A closed round's answer is
// dropped, as a TCP client drops a straggler's.
func (c *Cluster) applyPendingLocked(index int) {
	p := c.takePendingLocked(index)
	rmw, ok := c.receiveLocked(&p)
	if !ok {
		return
	}
	resp, err := c.objs()[p.object].apply(c, rmw, trace.Context{}, false)
	if err != nil {
		// A policy should never pick a crashed or retired object; drop the RMW
		// silently (it can never take effect).
		return
	}
	c.idleReason = ""
	if c.opts.eventLog != nil {
		c.emitEvent(Event{Step: c.steps, Kind: EventApply, Object: p.object, Client: p.op.Client, Op: p.op})
	}
	c.notePeakLocked(c.storageTotalsLocked())
	if t := p.owner; t != nil && p.round == t.round {
		call := &t.calls[p.call]
		call.Done = true
		call.Response = c.answerLocked(&p, t.sent[p.call], resp)
		if t.state == taskBlocked && !t.crashed {
			done := 0
			for i := range t.calls {
				if t.calls[i].Done {
					done++
				}
			}
			if done >= t.waitNeed {
				t.state = taskReady
				t.ticket = c.nextTicket
				c.nextTicket++
				c.readyQ = append(c.readyQ, t)
			}
		}
	}
	c.cond.Broadcast()
}

// takePendingLocked removes the pending RMW at index from the list and
// returns it. Its buffers go to the slot the list leaves free at its end,
// where the next trigger writes over them (invokeControlled): a delivered
// RMW's bytes live until then, and no longer.
func (c *Cluster) takePendingLocked(index int) pendingRMW {
	p := c.pending[index]
	last := len(c.pending) - 1
	copy(c.pending[index:], c.pending[index+1:])
	c.pending[last] = pendingRMW{env: p.env[:0], refs: p.refs[:0]}
	c.pending = c.pending[:last]
	return p
}

// emitEvent calls the event log. It is invoked with c.mu held, so the callback
// must not call back into the cluster.
func (c *Cluster) emitEvent(ev Event) {
	c.opts.eventLog(ev)
}
