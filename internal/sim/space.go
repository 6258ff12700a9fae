package sim

import (
	"fmt"
	"slices"

	"spacebounds/internal/bound"
	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// spaceRule is the simulator's one space rule: Theorem 2 for the adaptive
// register, and its counterparts for the baselines, held at every scheduling
// step of a run and, once the run quiesces, in the exact quiescent form
// (quiescentSpace, its last step). judge applies both, with bound.Region's
// bounds.
//
// At every step the adversary hands it the view, whose ObjectBits are the
// walk the coordinator made for the storage peaks after the last apply (or
// lifecycle change), and the cluster tells which objects crashed. A
// write is active while an RMW of it is pending, or while it is invoked and
// has not returned, and it belongs to the region its RMWs go to. So a
// crashed writer's write stays active, and so does a write whose straggler
// GC is still pending after it returned. A region's window c is the most,
// over its active writes, of the writes active in the region at once since
// that write became active. Every region the router lists is then held, with
// n_live its non-crashed objects:
//   - adaptive: the live objects to bound.Adaptive at the window c;
//   - abd, safereg and any provider the rule does not know: to n_live·D/k;
//   - every object, crashed or not, to its provider's ceiling (ecreg's
//     counts the writes the region has taken so far).
//
// The instantaneous c is too small: in adaptive sequential seed 276 a write's
// replica waits in an object's Vf while an earlier write's straggler GC
// keeps Vp full, and that GC lands, dropping c to 1, before the later
// write's GC empties Vf. DESIGN.md ("The space rule") gives the reasons.
//
// The rule reports the first breach of each region. It reads state only and
// draws nothing from the adversary's generator, so it moves no schedule.
type spaceRule struct {
	cluster *dsys.Cluster
	regions []*regionSpace // the regions the router lists, in installation order
	tallies map[*shard.Shard]*regionSpace
	writes  []*activeWrite // in the order their first RMW was seen pending
	// pending holds the write of each write RMW pending at the last step, in
	// trigger order, and spare the list the step before that, whose array the
	// next step refills.
	pending, spare []pendingWrite
	violations     []string // the breaches, in the order they were found
}

// regionSpace is one region's tally: its writes active at this step, its
// window c, and every write it has taken.
type regionSpace struct {
	sh                     *shard.Shard
	active, window, writes int
	breached               bool
}

// activeWrite is one active write, the most writes active at once in its
// region since it became active, and the last step that saw it active. Its
// region is nil until one of its RMWs is seen going to a listed region.
type activeWrite struct {
	op           dsys.OpID
	region       *regionSpace
	window, seen int
}

// pendingWrite is a pending write RMW, by its trigger sequence number, and
// its write.
type pendingWrite struct {
	seq int64
	w   *activeWrite
}

// relayout takes the router's listing of non-retired shards. A region the
// router stops listing is retired for good and never checked again.
func (r *spaceRule) relayout(shards []*shard.Shard) {
	r.regions = r.regions[:0]
	for _, sh := range shards {
		if r.tallies[sh] == nil {
			r.tallies[sh] = &regionSpace{sh: sh}
		}
		r.regions = append(r.regions, r.tallies[sh])
	}
}

// step holds every listed region to its bound at one scheduling point.
func (r *spaceRule) step(v *dsys.View) {
	// The view lists the pending RMWs in trigger order, so those triggered
	// since the last step follow all the others: an RMW pending at the last
	// step is matched to its write by its sequence number, and only a newly
	// triggered round's RMWs look their write up.
	last, j := r.pending, 0
	r.pending, r.spare = r.spare[:0], last
	var w *activeWrite
	for _, p := range v.Pending {
		if p.Op.Kind != dsys.OpWrite {
			continue
		}
		for j < len(last) && last[j].seq < p.Seq {
			j++
		}
		if j < len(last) && last[j].seq == p.Seq {
			w = last[j].w
		} else if w == nil || w.op != p.Op { // a round's RMWs are pending side by side
			w = r.writeOf(p.Op)
		}
		r.pending = append(r.pending, pendingWrite{seq: p.Seq, w: w})
		w.seen = v.Step
		for i := 0; w.region == nil && i < len(r.regions); i++ {
			if rs := r.regions[i]; p.Object >= rs.sh.Base && p.Object < rs.sh.Base+rs.sh.Span {
				w.region, rs.writes = rs, rs.writes+1
			}
		}
	}
	for _, w := range r.writes {
		if w.seen != v.Step && slices.Contains(v.OutstandingWrites, w.op.WriteID()) {
			w.seen = v.Step
		}
	}
	for _, rs := range r.regions {
		rs.active, rs.window = 0, 0
	}
	r.writes = slices.DeleteFunc(r.writes, func(w *activeWrite) bool { return w.seen != v.Step })
	for _, w := range r.writes {
		if w.region != nil {
			w.region.active++
		}
	}
	for _, w := range r.writes {
		if w.region != nil {
			w.window = max(w.window, w.region.active)
			w.region.window = max(w.region.window, w.window)
		}
	}
	for _, rs := range r.regions {
		if breach := judge(rs.sh, v.ObjectBits, r.cluster, rs.writes, rs.window, false); breach != "" && !rs.breached {
			rs.breached = true
			r.violations = append(r.violations, fmt.Sprintf("%s (%s) at step %d, c = %d: %s", rs.sh.Name, rs.sh.Algorithm, v.Step, rs.window, breach))
		}
	}
}

// writeOf returns op's active write, added if the rule has none.
func (r *spaceRule) writeOf(op dsys.OpID) *activeWrite {
	if i := slices.IndexFunc(r.writes, func(w *activeWrite) bool { return w.op == op }); i >= 0 {
		return r.writes[i]
	}
	w := &activeWrite{op: op}
	r.writes = append(r.writes, w)
	return w
}

// judge holds one region, its objects holding bits by ID, to bound.Region:
// every object, crashed or not, to its ceiling, and the live ones together to
// the least and the most. It returns the first breach, or "".
func judge(sh *shard.Shard, bits []int, cluster *dsys.Cluster, writes, c int, quiesced bool) string {
	live, sum, top, at := 0, 0, 0, sh.Base
	for obj := sh.Base; obj < sh.Base+sh.Span; obj++ {
		if bits[obj] > top {
			top, at = bits[obj], obj
		}
		if !cluster.ObjectDown(obj) {
			live, sum = live+1, sum+bits[obj]
		}
	}
	least, most, ceiling := bound.Region(sh.Algorithm, sh.Reg.Config(), live, writes, c, quiesced)
	switch {
	case top > ceiling && cluster.ObjectDown(at):
		return fmt.Sprintf("crashed object %d holds %d bits, above its ceiling of %d", at, top, ceiling)
	case top > ceiling:
		return fmt.Sprintf("object %d holds %d bits, above its ceiling of %d", at, top, ceiling)
	case sum < least || sum > most:
		return fmt.Sprintf("%d live objects hold %d bits, want %d..%d", live, sum, least, most)
	}
	return ""
}

// quiescentSpace is the space rule's last step: the storage a quiesced run
// leaves in every route's region whose objects are not retired (a region's
// objects retire together), a retiring region included, read from one
// storage sample. Per region, with D/k the piece size (D for abd), n_live its
// non-crashed objects and x the writes recorded on it that never returned
// (bound.Region at quiescence):
//
//   - its live objects hold exactly n_live·D/k bits when x is 0, and always
//     for abd and safereg, which overwrite in place. A write whose client
//     crashed mid-write leaves blocks no GC round will ever remove: ecreg a
//     piece per object, and adaptive a piece or, once its follow-up round
//     was sent, a replica, each object never more than its ceiling;
//   - a crashed object is frozen, not quiescent: it keeps what it held when
//     it crashed, and holds at most its provider's ceiling.
func quiescentSpace(set *shard.Set, recs *history.Recorders) []string {
	cluster := set.Cluster()
	bits := make([]int, cluster.N())
	for obj, held := range cluster.SampleStorage().PerObjectBits {
		bits[obj] = held
	}
	var out []string
	for _, name := range set.Router().Names() {
		sh := set.Shard(name)
		if cluster.ObjectRetired(sh.Base) {
			continue
		}
		var writes []*history.Op
		if rec := recs.Get(name); rec != nil {
			writes = rec.History(value.Zero(sh.Reg.Config().DataLen)).Writes()
		}
		unreturned := 0
		for _, op := range writes {
			if !op.Completed() {
				unreturned++
			}
		}
		if breach := judge(sh, bits, cluster, len(writes), unreturned, true); breach != "" {
			out = append(out, fmt.Sprintf("%s (%s): %s at quiescence (%d writes never returned)", name, sh.Algorithm, breach, unreturned))
		}
	}
	return out
}
