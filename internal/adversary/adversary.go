// Package adversary implements the scheduling adversary Ad of Section 4
// (Definition 7) and the experiment driver that uses it to exhibit the
// Ω(min(f, c) · D) storage lower bound (Theorem 1) on concrete algorithms.
//
// Ad is parameterized by ℓ (the paper fixes ℓ = D/2 to prove the theorem).
// At every scheduling point it:
//
//  1. lets the longest-pending RMW take effect, provided the RMW was
//     triggered by a write whose storage contribution outside its own client
//     is still at most D-ℓ bits (the set C⁻ℓ) and provided its target base
//     object stores fewer than ℓ bits of code blocks (it is not "frozen",
//     i.e. not in Fℓ);
//  2. otherwise lets some client take local steps, in fair (FIFO) order;
//  3. otherwise stalls, pinning the run.
//
// Because every write must plant at least D bits of distinct blocks outside
// its own client before it can return (Lemma 1), a run scheduled by Ad ends
// pinned with either f+1 objects holding at least ℓ bits each or with every
// one of the c outstanding writes having contributed more than D-ℓ bits —
// in both cases the storage is at least min(f+1, c) · min(ℓ, D-ℓ) bits,
// which with ℓ = D/2 is the Ω(min(f, c)·D) bound.
package adversary

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
	"spacebounds/internal/workload"
)

// Policy is the adversary Ad as a dsys scheduling policy.
type Policy struct {
	// EllBits is ℓ in bits; objects holding at least EllBits of code blocks
	// are frozen.
	EllBits int
	// DataBits is D in bits; writes that have contributed more than
	// DataBits-EllBits outside their own client are starved. If zero, the
	// cluster's configured data size is used.
	DataBits int
}

var _ dsys.Policy = (*Policy)(nil)

// NewPolicy returns Ad with the given ℓ (in bits).
func NewPolicy(ellBits int) *Policy { return &Policy{EllBits: ellBits} }

// Decide implements dsys.Policy.
func (p *Policy) Decide(v *dsys.View) dsys.Decision {
	dBits := p.DataBits
	if dBits == 0 {
		dBits = v.DataBits
	}

	// Classify base objects and outstanding writes from the storage snapshot.
	frozen := map[int]bool{}
	light := map[oracle.WriteID]bool{}
	if v.Storage != nil {
		frozen = v.Storage.Full(p.EllBits)
		for _, w := range v.Storage.LightWrites(v.OutstandingWrites, dBits, p.EllBits) {
			light[w] = true
		}
	} else {
		for _, w := range v.OutstandingWrites {
			light[w] = true
		}
	}

	// Rule 1: the longest-pending RMW by a light write on a non-frozen,
	// non-crashed base object.
	bestIdx := -1
	var bestSeq int64
	for _, pd := range v.Pending {
		if pd.ObjectCrashed || frozen[pd.Object] {
			continue
		}
		if pd.Op.Kind != dsys.OpWrite || !light[pd.Op.WriteID()] {
			continue
		}
		if bestIdx == -1 || pd.Seq < bestSeq {
			bestIdx, bestSeq = pd.Index, pd.Seq
		}
	}
	if bestIdx >= 0 {
		return dsys.Decision{Kind: dsys.KindApply, PendingIndex: bestIdx}
	}

	// Rule 2: fair scheduling of client actions — grant the run token to the
	// longest-waiting ready client.
	if len(v.Ready) > 0 {
		best := v.Ready[0]
		for _, r := range v.Ready[1:] {
			if r.Ticket < best.Ticket {
				best = r
			}
		}
		return dsys.Decision{Kind: dsys.KindRun, Ticket: best.Ticket}
	}

	// Nothing Ad is willing to schedule: the run is pinned.
	return dsys.Decision{Kind: dsys.KindStall}
}

// Result summarizes one adversarial run against an algorithm.
type Result struct {
	// Algorithm is the register emulation under attack.
	Algorithm string
	// F, K, Concurrency and DataBits are the run parameters.
	F, K, Concurrency, DataBits int
	// EllBits is the adversary's ℓ.
	EllBits int
	// PinnedBaseObjectBits is the base-object storage when the run was
	// pinned (or when it ended, if a write managed to complete).
	PinnedBaseObjectBits int
	// PinnedTotalBits additionally counts client-held and in-flight blocks.
	PinnedTotalBits int
	// LowerBoundBits is the analytic target min(f+1, c) * min(ℓ, D-ℓ).
	LowerBoundBits int
	// FullObjects is |Fℓ| and HeavyWrites is |C⁺ℓ| at the pinned point.
	FullObjects int
	HeavyWrites int
	// CompletedWrites counts writes that returned despite the adversary.
	CompletedWrites int
	// Steps is the number of scheduling decisions taken.
	Steps int
	// Reason is how the run ended (IdleStuck means Ad pinned it).
	Reason dsys.IdleReason
}

// MeetsBound reports whether the pinned storage meets the analytic target.
func (r *Result) MeetsBound() bool { return r.PinnedBaseObjectBits >= r.LowerBoundBits }

// Run attacks the register emulation with Ad: it invokes concurrency
// concurrent writes of distinct values, schedules the run with Ad using
// ℓ = D/2 as the paper fixes it, lets it run until it is pinned or quiesces,
// and reports the storage the adversary extracted. A non-nil onEvent sees
// every scheduling event (Figure 3's schedule).
func Run(reg register.Register, concurrency int, onEvent func(dsys.Event)) (*Result, error) {
	cfg := reg.Config()
	if concurrency < 1 {
		return nil, fmt.Errorf("adversary: concurrency must be at least 1, got %d", concurrency)
	}
	dBits := cfg.DataBits()
	ellBits := dBits / 2
	v0 := value.Zero(cfg.DataLen)
	states, err := reg.InitialStates(v0)
	if err != nil {
		return nil, fmt.Errorf("adversary: initial states: %w", err)
	}
	pol := NewPolicy(ellBits)
	maxSteps := 200 * concurrency * cfg.N() // safety net: Ad runs pin themselves long before this
	cluster := dsys.NewCluster(states,
		dsys.WithPolicy(pol),
		dsys.WithDataBits(dBits),
		dsys.WithMaxSteps(maxSteps),
		dsys.WithEventLog(onEvent),
	)
	defer cluster.Close()

	tasks := make([]*dsys.TaskHandle, 0, concurrency)
	for c := 1; c <= concurrency; c++ {
		c := c
		tasks = append(tasks, cluster.Spawn(c, func(h *dsys.ClientHandle) error {
			return reg.Write(h, workload.WriterValue(cfg, c, 1))
		}))
	}
	cluster.Start()
	reason := cluster.WaitIdle()

	snap := cluster.SampleStorage()
	res := &Result{
		Algorithm:            reg.Name(),
		F:                    cfg.F,
		K:                    cfg.K,
		Concurrency:          concurrency,
		DataBits:             dBits,
		EllBits:              ellBits,
		PinnedBaseObjectBits: snap.BaseObjectBits,
		PinnedTotalBits:      snap.TotalBits,
		FullObjects:          len(snap.Full(ellBits)),
		Steps:                cluster.Steps(),
		Reason:               reason,
	}
	outstanding := cluster.OutstandingOps()
	var outstandingWrites []oracle.WriteID
	for _, op := range outstanding {
		if op.Kind == dsys.OpWrite {
			outstandingWrites = append(outstandingWrites, op.WriteID())
		}
	}
	res.HeavyWrites = len(snap.HeavyWrites(outstandingWrites, dBits, ellBits))
	res.CompletedWrites = concurrency - len(outstandingWrites)

	target := concurrency
	if cfg.F+1 < target {
		target = cfg.F + 1
	}
	short := ellBits
	if dBits-ellBits < short {
		short = dBits - ellBits
	}
	res.LowerBoundBits = target * short

	// Release the pinned clients so Close can join them.
	cluster.Close()
	for _, t := range tasks {
		// Errors are expected: pinned writers abort with ErrHalted.
		_ = t.Wait()
	}
	return res, nil
}
