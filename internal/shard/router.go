package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// RouteState is the lifecycle of one routed shard. Reconfiguration moves a
// shard through Active → Draining → Retired, and brings successors in through
// Seeding → Active.
type RouteState int

// Route lifecycle states.
const (
	// RouteActive routes reads and writes normally.
	RouteActive RouteState = iota + 1
	// RouteSeeding marks a migration successor: reads consult it and fall
	// back to its predecessor while its register is still unwritten (zero
	// timestamp), writes are held until the migration writer has seeded it.
	RouteSeeding
	// RouteDraining marks a migration predecessor: it no longer receives
	// writes (the routing table points at its successors) and serves only the
	// fallback half of dual-epoch reads until it is retired.
	RouteDraining
	// RouteRetired marks a fully drained shard whose base-object region has
	// been decommissioned.
	RouteRetired
)

// String implements fmt.Stringer.
func (s RouteState) String() string {
	switch s {
	case RouteActive:
		return "active"
	case RouteSeeding:
		return "seeding"
	case RouteDraining:
		return "draining"
	case RouteRetired:
		return "retired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Route is one entry of the routing table: a shard together with its
// lifecycle state, its migration linkage, and the in-flight operations pinned
// to it. All fields are guarded by the owning Router's mutex; accessors take
// it.
type Route struct {
	sh *Shard
	// parent is the value-ancestor shard name ("" for an original shard): the
	// predecessor whose register value seeded this route. A merge successor
	// has two parents; `parent` is finalized to the merge winner when the
	// seed's value ordering is decided (SetMergeWinner).
	parent string
	// parents lists every migration predecessor (one for split/drain
	// successors, two for a merge successor, nil for an original shard).
	parents     []string
	depth       int   // split depth, salts the child-selection hash
	installedAt int64 // routing epoch this route was installed in (0 for roots)
	unrouted    bool  // successor of an aborted split, drain or merge: out of the table

	state    RouteState
	from     *Route   // primary fallback target while state == RouteSeeding
	children []*Route // set once this route was split or merged; routing descends

	// writePins / readPins track in-flight operations by client ID. Draining
	// waits for them — ignoring clients the scheduler has crashed, whose pins
	// can never be released mid-run.
	writePins map[int]int
	readPins  map[int]int

	r *Router
}

// Shard returns the route's shard.
func (e *Route) Shard() *Shard { return e.sh }

// Parent returns the name of the shard whose value seeded this route, or "".
// For a merge successor this is the merge winner, which SetMergeWinner fixes
// after installation — hence the lock.
func (e *Route) Parent() string {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	return e.parent
}

// InstalledAt returns the routing epoch the route was installed in (0 for the
// original shards). The merge value-ordering rule compares source routes by
// (installation epoch, register timestamp), mirroring the dual-epoch read.
func (e *Route) InstalledAt() int64 {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	return e.installedAt
}

// State returns the route's current lifecycle state.
func (e *Route) State() RouteState {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	return e.state
}

// Router is the epoch-stamped routing table of a shard set. It replaces the
// static FNV map: keys still hash over the original shard list (the mapping
// of PR 1 is preserved bit for bit, see the golden test), but every entry can
// be split, drained onto fresh base objects, or retired at runtime. Each
// change installs a new epoch; operations pin the route they resolved so a
// migration can drain in-flight work before it moves state.
type Router struct {
	mu   sync.Mutex
	cond *sync.Cond

	epoch  int64
	closed bool

	roots  []*Route          // original shards in declaration order (hash ring)
	byName map[string]*Route // every route ever installed, by shard name
	order  []string          // installation order, for deterministic iteration

	heldWrites int64 // writes that had to wait for a seeding successor
}

// newRouter builds the epoch-0 table over the declared shards.
func newRouter(shards []*Shard) *Router {
	r := &Router{byName: make(map[string]*Route, len(shards))}
	r.cond = sync.NewCond(&r.mu)
	for _, sh := range shards {
		e := r.newRoute(sh, "", 0)
		e.state = RouteActive
		r.roots = append(r.roots, e)
	}
	return r
}

// newRoute allocates and registers a route. Callers must hold r.mu (or be the
// constructor).
func (r *Router) newRoute(sh *Shard, parent string, depth int) *Route {
	e := &Route{
		sh: sh, parent: parent, depth: depth,
		writePins: make(map[int]int), readPins: make(map[int]int), r: r,
	}
	if parent != "" {
		e.parents = []string{parent}
	}
	r.byName[sh.Name] = e
	r.order = append(r.order, sh.Name)
	return e
}

// Epoch returns the current routing epoch: the number of table changes
// installed so far.
func (r *Router) Epoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// HeldWrites returns how many write acquisitions had to wait (or retry)
// because their target was still seeding.
func (r *Router) HeldWrites() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heldWrites
}

// rootHash is the epoch-0 key hash: FNV-1a modulo the original shard count.
// It must never change — a golden test pins the mapping.
func rootHash(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// childHash selects among a split route's successors, salted by the split
// depth so that re-splitting a child re-partitions its keys.
func childHash(key string, depth, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	h.Write([]byte{byte(depth)})
	return int(h.Sum32() % uint32(n))
}

// resolveLocked routes a key to its current leaf route: an exact shard-name
// match wins (descending through splits and merges), any other key hashes
// over the original shard list and descends. Callers must hold r.mu.
func (r *Router) resolveLocked(key string) *Route {
	e, _ := r.resolvePathLocked(key)
	return e
}

// resolvePathLocked is resolveLocked, additionally reporting the route the
// descent stepped through immediately before reaching the leaf (nil when the
// leaf was reached directly). During a merge two draining parents share one
// seeding child; a dual-epoch read must fall back to the parent its key
// actually descended through — the split-tree descent in reverse — which is
// exactly what `via` identifies. Callers must hold r.mu.
func (r *Router) resolvePathLocked(key string) (leaf, via *Route) {
	e := r.roots[rootHash(key, len(r.roots))]
	if x, ok := r.byName[key]; ok && !x.unrouted && (len(x.children) > 0 || x.state != RouteRetired) {
		e = x
	}
	for len(e.children) > 0 {
		via = e
		e = e.children[childHash(key, e.depth, len(e.children))]
	}
	return e, via
}

// ForKey resolves a key to its current leaf shard without pinning.
func (r *Router) ForKey(key string) *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resolveLocked(key).sh
}

// TryAcquireWrite resolves key and pins the target for a write. When the
// target is a still-unseeded migration successor the write must not proceed
// (the seed write has to be the successor's first write); the call then
// reports held=true without pinning, and the caller retries — yielding to the
// scheduler in controlled mode, or via AwaitAcquireWrite in live mode.
func (r *Router) TryAcquireWrite(client int, key string) (ref *Route, held bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, ErrRouterClosed
	}
	e := r.resolveLocked(key)
	if e.state == RouteSeeding {
		r.heldWrites++
		return nil, true, nil
	}
	e.writePins[client]++
	return e, false, nil
}

// AwaitAcquireWrite is TryAcquireWrite for live mode: it blocks on the
// router's condition variable while the target is seeding. It must not be
// used by controlled-mode client tasks, which would deadlock the scheduler;
// they retry with Yield instead.
func (r *Router) AwaitAcquireWrite(client int, key string) (*Route, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, ErrRouterClosed
		}
		e := r.resolveLocked(key)
		if e.state != RouteSeeding {
			e.writePins[client]++
			return e, nil
		}
		r.heldWrites++
		r.cond.Wait()
	}
}

// ReleaseWrite unpins a write acquired by TryAcquireWrite/AwaitAcquireWrite.
func (r *Router) ReleaseWrite(e *Route, client int) {
	r.mu.Lock()
	e.writePins[client]--
	if e.writePins[client] <= 0 {
		delete(e.writePins, client)
	}
	migrating := e.state != RouteActive
	r.mu.Unlock()
	if migrating {
		r.cond.Broadcast()
	}
}

// AcquireRead resolves key and pins the target (and, while the target is an
// unseeded successor, its predecessor) for a read. fb is non-nil exactly when
// the read must be a dual-epoch read: read ref's register with its timestamp,
// and fall back to fb when the timestamp is zero — lexicographic
// (epoch, timestamp) order across the migration boundary. For a merge
// successor the fallback is the draining parent the key descended through, so
// each key keeps reading its own pre-merge register until the successor is
// seeded.
func (r *Router) AcquireRead(client int, key string) (ref, fb *Route, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, ErrRouterClosed
	}
	e, via := r.resolvePathLocked(key)
	e.readPins[client]++
	if e.state == RouteSeeding {
		cand := via
		if cand == nil {
			// Reached directly (the key names the successor itself): fall
			// back to the primary predecessor.
			cand = e.from
		}
		if cand != nil && cand.state != RouteRetired {
			fb = cand
			fb.readPins[client]++
		}
	}
	return e, fb, nil
}

// ReleaseRead unpins a read (and its fallback, if any).
func (r *Router) ReleaseRead(e, fb *Route, client int) {
	r.mu.Lock()
	e.readPins[client]--
	if e.readPins[client] <= 0 {
		delete(e.readPins, client)
	}
	migrating := e.state != RouteActive
	if fb != nil {
		fb.readPins[client]--
		if fb.readPins[client] <= 0 {
			delete(fb.readPins, client)
		}
		migrating = true
	}
	r.mu.Unlock()
	if migrating {
		r.cond.Broadcast()
	}
}

// InstallSuccessors atomically replaces the leaf route `name` by seeding
// successor routes and marks the old route draining: from this epoch on,
// writes for the old route's keys are held for the successors and reads
// consult both epochs. It returns the new epoch.
func (r *Router) InstallSuccessors(name string, succs []*Shard) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrRouterClosed
	}
	e, ok := r.byName[name]
	switch {
	case !ok:
		return 0, fmt.Errorf("shard: unknown shard %q", name)
	case e.unrouted || e.state != RouteActive:
		return 0, fmt.Errorf("shard: shard %q is %v, not active", name, e.state)
	case len(e.children) > 0:
		return 0, fmt.Errorf("shard: shard %q was already split", name)
	case len(succs) == 0:
		return 0, fmt.Errorf("shard: no successors for %q", name)
	}
	for _, sh := range succs {
		if _, dup := r.byName[sh.Name]; dup {
			return 0, fmt.Errorf("shard: successor name %q already routed", sh.Name)
		}
	}
	r.epoch++
	for _, sh := range succs {
		c := r.newRoute(sh, name, e.depth+1)
		c.state = RouteSeeding
		c.from = e
		c.installedAt = r.epoch
		e.children = append(e.children, c)
	}
	e.state = RouteDraining
	r.cond.Broadcast()
	return r.epoch, nil
}

// InstallMergeSuccessor atomically replaces the two leaf routes a and b by a
// single seeding successor — the inverse of a split. Both sources become
// draining parents of the one child, so every key that routed to either
// descends to the successor (split-tree descent in reverse), writes are held
// until the migration writer seeds it, and dual-epoch reads fall back to the
// parent their key descended through. It returns the new epoch.
func (r *Router) InstallMergeSuccessor(a, b string, succ *Shard) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrRouterClosed
	}
	if a == b {
		return 0, fmt.Errorf("shard: cannot merge shard %q with itself", a)
	}
	var sources [2]*Route
	for i, name := range []string{a, b} {
		e, ok := r.byName[name]
		switch {
		case !ok:
			return 0, fmt.Errorf("shard: unknown shard %q", name)
		case e.unrouted || e.state != RouteActive:
			return 0, fmt.Errorf("shard: shard %q is %v, not active", name, e.state)
		case len(e.children) > 0:
			return 0, fmt.Errorf("shard: shard %q was already split", name)
		}
		sources[i] = e
	}
	if _, dup := r.byName[succ.Name]; dup {
		return 0, fmt.Errorf("shard: successor name %q already routed", succ.Name)
	}
	r.epoch++
	depth := sources[0].depth
	if sources[1].depth > depth {
		depth = sources[1].depth
	}
	// The child's lineage parent stays unset until the migration's value
	// ordering picks the winner (SetMergeWinner): reporting a default winner
	// would fabricate ancestry in the diagnostics of a run that stranded the
	// merge before the choice.
	c := r.newRoute(succ, "", depth+1)
	c.parents = []string{a, b}
	c.state = RouteSeeding
	c.from = sources[0]
	c.installedAt = r.epoch
	for _, e := range sources {
		e.children = []*Route{c}
		e.state = RouteDraining
	}
	r.cond.Broadcast()
	return r.epoch, nil
}

// SetMergeWinner finalizes a merge successor's value ancestry: winner is the
// source whose latest value the migration writer chose by the
// (installation epoch, timestamp) ordering rule. Lineage — and therefore
// cross-epoch history stitching — follows the winner; the other source's
// history becomes a pruned branch (PrunedBranches).
func (r *Router) SetMergeWinner(name, winner string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("shard: unknown shard %q", name)
	}
	for _, p := range e.parents {
		if p == winner {
			e.parent = winner
			return nil
		}
	}
	return fmt.Errorf("shard: %q is not a parent of merge successor %q", winner, name)
}

// AbortMerge rolls back an InstallMergeSuccessor whose migration could not
// complete: both sources become active again and the successor is retired.
// Safe for the same reason AbortSuccessors is — writes were held for the
// successor throughout, so no client state can have reached it.
func (r *Router) AbortMerge(a, b string) {
	r.mu.Lock()
	ea, eb := r.byName[a], r.byName[b]
	if ea != nil && eb != nil && ea.state == RouteDraining && eb.state == RouteDraining &&
		len(ea.children) == 1 && len(eb.children) == 1 && ea.children[0] == eb.children[0] {
		c := ea.children[0]
		c.state = RouteRetired
		c.from = nil
		c.unrouted = true
		ea.children, eb.children = nil, nil
		ea.state, eb.state = RouteActive, RouteActive
		r.epoch++
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// AbortSuccessors rolls back an InstallSuccessors whose migration could not
// complete (the seed read or a seed write failed): the old route becomes
// active again and the successors are retired. It is safe because writes were
// held for the successors throughout — no client state can have reached them.
func (r *Router) AbortSuccessors(name string) {
	r.mu.Lock()
	e := r.byName[name]
	if e != nil && e.state == RouteDraining {
		for _, c := range e.children {
			c.state = RouteRetired
			c.from = nil
			c.unrouted = true
		}
		e.children = nil
		e.state = RouteActive
		r.epoch++
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// WritesDrained reports whether no write is pinned to the route by a client
// that is still alive. Pins of crashed clients are excluded: a client crashed
// mid-operation can never release its pin, and its surviving in-flight RMWs
// are incomplete writes, which the migration is allowed to miss (they are
// concurrent with everything that follows).
func (r *Router) WritesDrained(name string, crashed map[int]bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return true
	}
	return pinsDrained(e.writePins, crashed)
}

// ReadsDrained is WritesDrained for read pins.
func (r *Router) ReadsDrained(name string, crashed map[int]bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return true
	}
	return pinsDrained(e.readPins, crashed)
}

func pinsDrained(pins map[int]int, crashed map[int]bool) bool {
	for client, n := range pins {
		if n > 0 && !crashed[client] {
			return false
		}
	}
	return true
}

// MarkSeeded flips a seeding successor to active: its register now holds the
// migrated value (or a newer client write), so reads stop consulting the
// predecessor and writes are admitted.
func (r *Router) MarkSeeded(name string) {
	r.mu.Lock()
	if e, ok := r.byName[name]; ok && e.state == RouteSeeding {
		e.state = RouteActive
		e.from = nil
		r.epoch++
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// MarkRetired flips a drained route to retired. The caller is responsible for
// retiring the underlying object region afterwards.
func (r *Router) MarkRetired(name string) {
	r.mu.Lock()
	if e, ok := r.byName[name]; ok {
		e.state = RouteRetired
		r.epoch++
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Pins reports the clients currently holding read and write pins on the
// named route, in ascending client order. It is a diagnostic for drain
// stalls: a migration waiting on WritesDrained/ReadsDrained is waiting on
// exactly these clients (minus the crashed ones).
func (r *Router) Pins(name string) (readers, writers []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return nil, nil
	}
	for c, n := range e.readPins {
		if n > 0 {
			readers = append(readers, c)
		}
	}
	for c, n := range e.writePins {
		if n > 0 {
			writers = append(writers, c)
		}
	}
	sort.Ints(readers)
	sort.Ints(writers)
	return readers, writers
}

// RouteOf returns the route installed under the given shard name, or nil.
func (r *Router) RouteOf(name string) *Route {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// Shards returns the shards of all non-retired routes in installation order.
func (r *Router) Shards() []*Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Shard, 0, len(r.order))
	for _, name := range r.order {
		if e := r.byName[name]; e.state != RouteRetired {
			out = append(out, e.sh)
		}
	}
	return out
}

// Names returns every route name ever installed — retired ones included — in
// installation order. The simulator iterates it to find routes a move left
// seeding or draining. Storage attribution does not: Set.Storage iterates the
// set's region registry, which also holds successors built but not yet routed.
func (r *Router) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// ActiveLeafNames returns the names of the routes that currently receive
// traffic (active, unsplit, routed), in installation order. Reconfiguration
// target pickers use it.
func (r *Router) ActiveLeafNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, name := range r.order {
		e := r.byName[name]
		if e.state == RouteActive && len(e.children) == 0 && !e.unrouted {
			out = append(out, name)
		}
	}
	return out
}

// LeafNames returns the names of all non-retired, unsplit, routed routes in
// installation order — the shards whose (stitched) histories describe the
// system's current registers.
func (r *Router) LeafNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, name := range r.order {
		e := r.byName[name]
		if e.state != RouteRetired && len(e.children) == 0 && !e.unrouted {
			out = append(out, name)
		}
	}
	return out
}

// Lineage returns the chain of shard names from the oldest ancestor down to
// name, following migration parentage. A shard's end-to-end history is the
// stitched union of its lineage's histories.
func (r *Router) Lineage(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var chain []string
	for cur := name; cur != ""; {
		chain = append([]string{cur}, chain...)
		e, ok := r.byName[cur]
		if !ok {
			break
		}
		cur = e.parent
	}
	return chain
}

// PrunedBranches returns the names of merge losers: sources of a merge whose
// latest value the ordering rule did not choose, in installation order of
// their merge successors. Their histories end at the merge — the merged
// register carries the winner's value on — so consistency checking covers
// them as separate terminated branches rather than stitching them into the
// successor's lineage.
func (r *Router) PrunedBranches() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, name := range r.order {
		e := r.byName[name]
		// Two parents identify a merge successor; an unrouted one is an
		// aborted merge, and an empty parent means the value ordering never
		// ran — in neither case was anything pruned.
		if len(e.parents) < 2 || e.unrouted || e.parent == "" {
			continue
		}
		for _, p := range e.parents {
			if p != e.parent {
				out = append(out, p)
			}
		}
	}
	return out
}

// CheckedNames returns the names whose histories a run checks: every leaf,
// its history stitched across its lineage, then every pruned merge branch,
// whose history ends at the merge that discarded its value. The live sharded
// workload and the simulator check exactly these.
func (r *Router) CheckedNames() []string {
	return append(r.LeafNames(), r.PrunedBranches()...)
}

// close wakes all blocked acquirers with an error.
func (r *Router) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}
