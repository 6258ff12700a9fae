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

	"spacebounds/internal/bound"
	"spacebounds/internal/dsys"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/value"
	"spacebounds/internal/workload"
)

// Policy is the adversary Ad as a dsys scheduling policy.
type Policy struct {
	// EllBits is ℓ in bits; objects holding at least EllBits of code blocks
	// are frozen.
	EllBits int
	// DataBits is D in bits; writes that have contributed more than
	// DataBits-EllBits outside their own client are starved.
	DataBits int
}

var _ dsys.Policy = (*Policy)(nil)

// NewPolicy returns Ad with the given ℓ and D (both in bits).
func NewPolicy(ellBits, dataBits int) *Policy { return &Policy{EllBits: ellBits, DataBits: dataBits} }

// Decide implements dsys.Policy.
func (p *Policy) Decide(v *dsys.View) dsys.Decision {
	// Classify base objects and outstanding writes from the storage snapshot.
	snap := v.Storage()
	frozen := fullObjects(snap, p.EllBits)
	light := map[oracle.WriteID]bool{}
	lightWrites, _ := splitWrites(snap, v.OutstandingWrites, p.DataBits, p.EllBits)
	for _, w := range lightWrites {
		light[w] = true
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

// fullObjects returns the set Fℓ: the IDs of base objects storing at least
// ell bits of code blocks, the objects Ad freezes.
func fullObjects(s *storagecost.Snapshot, ell int) map[int]bool {
	full := make(map[int]bool)
	for id, bits := range s.PerObjectBits {
		if bits >= ell {
			full[id] = true
		}
	}
	return full
}

// splitWrites divides the outstanding writes, in their order, into C⁻ℓ — the
// light writes, whose contribution outside their own client ||S(t, w)|| is at
// most D−ℓ bits — and C⁺ℓ, the heavy rest (Definition 6 and Section 4). dBits
// is D, the value size in bits.
func splitWrites(s *storagecost.Snapshot, outstanding []oracle.WriteID, dBits, ell int) (light, heavy []oracle.WriteID) {
	outside := outsideBits(s)
	for _, w := range outstanding {
		if outside[w] > dBits-ell {
			heavy = append(heavy, w)
		} else {
			light = append(light, w)
		}
	}
	return light, heavy
}

// outsideBits returns ||S(t, w)|| for every write with a block in the
// snapshot: the bits of w's blocks stored anywhere except at w's own client —
// its local holdings and its pending RMWs' parameters — summed over the set
// of block numbers present, not over instances (Definition 6). The durable
// axis is not part of Definition 2 and counts for nothing.
func outsideBits(s *storagecost.Snapshot) map[oracle.WriteID]int {
	indices := make(map[oracle.WriteID]map[int]int) // write -> block number -> bits
	for _, b := range s.Blocks {
		switch b.Location.Kind {
		case storagecost.BaseObject:
		case storagecost.Client, storagecost.Channel:
			if b.Location.ID == b.Source.Write.Client {
				continue
			}
		default:
			continue
		}
		m := indices[b.Source.Write]
		if m == nil {
			m = make(map[int]int)
			indices[b.Source.Write] = m
		}
		m[b.Source.Index] = max(m[b.Source.Index], b.Bits)
	}
	outside := make(map[oracle.WriteID]int, len(indices))
	for w, m := range indices {
		for _, bits := range m {
			outside[w] += bits
		}
	}
	return outside
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
	pol := NewPolicy(ellBits, dBits)
	maxSteps := 200 * concurrency * cfg.N() // safety net: Ad runs pin themselves long before this
	cluster := dsys.NewCluster(states,
		dsys.WithPolicy(pol),
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
		FullObjects:          len(fullObjects(snap, ellBits)),
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
	_, heavy := splitWrites(snap, outstandingWrites, dBits, ellBits)
	res.HeavyWrites = len(heavy)
	res.CompletedWrites = concurrency - len(outstandingWrites)

	res.LowerBoundBits = bound.Floor(cfg.F, concurrency, dBits, ellBits)

	// Release the pinned clients so Close can join them.
	cluster.Close()
	for _, t := range tasks {
		// Errors are expected: pinned writers abort with ErrHalted.
		_ = t.Wait()
	}
	return res, nil
}
