package sim

import (
	"errors"
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// quiescentSpace checks the storage a quiesced run leaves in every region
// that still holds base objects: Theorem 2's final clause for the adaptive
// register and its counterparts for the baselines. A retiring region counts
// until its objects are retired. Per region, with D/k the piece size (D for
// abd) and x the writes to it that never returned:
//
//   - its n_live non-crashed objects hold exactly n_live·D/k bits when x is
//     0, and always for abd and safereg, which overwrite in place. A write
//     whose client crashed mid-write leaves blocks no GC round will ever
//     remove: ecreg a piece per object, so (x+1)·n_live·D/k at most, and
//     adaptive a piece or, once its follow-up round was sent, a replica, so
//     n_live·min(D/k + x·D, 2D) at most;
//   - a crashed object is frozen, not quiescent: it keeps what it held when
//     it crashed, and holds at most its register's per-object ceiling.
//
// DESIGN.md ("The quiescent space clause") gives each provider's ceiling and
// the reason for it. The check reads state only and schedules nothing.
func quiescentSpace(set *shard.Set, recs *history.Recorders) []string {
	cluster := set.Cluster()
	var out []string
	for _, name := range set.Router().Names() {
		sh := set.Shard(name)
		cfg := sh.Reg.Config()
		piece := 8 * ((cfg.DataLen + cfg.K - 1) / cfg.K)
		var writes, unreturned int
		if rec := recs.Get(name); rec != nil {
			for _, op := range rec.History(value.Zero(cfg.DataLen)).Ops {
				if op.Kind == history.Write {
					writes++
					if !op.Completed() {
						unreturned++
					}
				}
			}
		}
		// The most one object ever holds, and the most one write that never
		// returned may leave at a live one: adaptive 2D (k pieces in Vp, a
		// replica in Vf) and a replica; ecreg a piece for every value the
		// region ever took — its initial value, a move's seed, each write —
		// since pure coding drops no piece of a write it has not seen
		// committed, and a piece; abd and safereg one block, overwritten in
		// place, and nothing.
		ceiling, leftBehind := piece, 0
		switch sh.Algorithm {
		case "adaptive":
			ceiling, leftBehind = 2*cfg.K*piece, cfg.K*piece
		case "ecreg":
			ceiling, leftBehind = (writes+2)*piece, piece
		}
		live, bits := 0, 0
		for obj := sh.Base; obj < sh.Base+sh.Span; obj++ {
			held := 0
			err := cluster.ReadObjectState(obj, func(s dsys.State) {
				for _, b := range s.Blocks() {
					held += b.Bits
				}
			})
			switch {
			case errors.Is(err, dsys.ErrRetiredObject):
				continue
			case err != nil:
				out = append(out, fmt.Sprintf("%s: object %d: %v", name, obj, err))
			case cluster.ObjectDown(obj):
				if held > ceiling {
					out = append(out, fmt.Sprintf("%s (%s): crashed object %d holds %d bits, above its ceiling of %d",
						name, sh.Algorithm, obj, held, ceiling))
				}
			default:
				live++
				bits += held
			}
		}
		if live == 0 {
			continue
		}
		want, most := live*piece, live*min(piece+unreturned*leftBehind, ceiling)
		if bits < want || bits > most {
			out = append(out, fmt.Sprintf("%s (%s): %d live objects hold %d bits at quiescence, want %d..%d (%d writes never returned)",
				name, sh.Algorithm, live, bits, want, most, unreturned))
		}
	}
	return out
}
