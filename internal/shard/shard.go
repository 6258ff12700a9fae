// Package shard multiplexes many named register emulations over one shared
// fault-prone cluster. Each shard owns a contiguous region of base objects
// and an independently configured register emulation (the algorithms may
// differ per shard), so a single simulated cluster serves a whole keyspace:
// keys route to shards by name or hash, and clients on different shards never
// share a lock on the live path because the scoped client handles of
// internal/dsys touch only the shard's own objects.
//
// Since the reconfiguration subsystem landed, routing is an epoch-stamped
// table (Router) instead of a static map: shards can be split, merged,
// drained onto fresh base objects, and retired at runtime, with a migration
// writer carrying each register's latest value across the epoch boundary (see
// internal/reconfig and DESIGN.md "Reconfiguration").
//
// Storage accounting remains exact: Set.Storage takes one sample of the
// cluster, which attributes bits to base objects by global ID, and a shard's
// cost is the sum over its region, so the paper's min(f, c)·D introspection
// holds per shard and the cluster's total equals their sum — including while
// two epochs coexist, because the draining region and its successors are
// disjoint regions of one cluster and no sample sees an object before its
// region is registered.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// ErrUnknownShard is returned (wrapped with the offending name) by set
// operations naming a shard that does not exist.
var ErrUnknownShard = errors.New("shard: unknown shard")

// ErrRouterClosed is returned by the router's acquires once the set has
// closed it (the cluster closed with it).
var ErrRouterClosed = errors.New("shard: router closed")

// Spec describes one named shard: which register emulation backs it (a
// provider name from internal/register) and its configuration.
type Spec struct {
	// Name identifies the shard; it must be unique within a Set.
	Name string
	// Algorithm is the register provider name ("adaptive", "abd", "ecreg",
	// "safereg").
	Algorithm string
	// Config is the shard's register configuration (F, K, DataLen, Code).
	Config register.Config
}

// Shard is one register emulation bound to a region of the shared cluster.
type Shard struct {
	// Name is the shard's unique name.
	Name string
	// Algorithm is the register provider name that built Reg; reconfiguration
	// uses it to build successors with the same emulation.
	Algorithm string
	// Reg is the register emulation serving the shard.
	Reg register.Register
	// Base is the global ID of the shard's first base object.
	Base int
	// Span is the number of base objects the shard owns (its register's n).
	Span int
}

// Set is a collection of shards multiplexed over one cluster.
type Set struct {
	cluster *dsys.Cluster
	router  *Router

	bmu      sync.RWMutex        // guards batchers and nextLane
	batchers map[string]*Batcher // non-nil entries when batching is enabled
	batchCfg *BatchConfig        // nil when batching is disabled
	nextLane int

	// regions is the append-only registry of every object region ever built,
	// in creation order. Storage attribution iterates it rather than the
	// routing table: a region exists (and holds its initial states' bits)
	// from ExtendObjects on, before its route is installed, and regions are
	// disjoint forever, so summing over this list is exact at every instant.
	// rmu is held across a region's ExtendObjects and its append, and across
	// Storage's sample, so no sample sees objects that no region owns.
	rmu     sync.Mutex
	regions []*Shard

	fallbackReads atomic.Int64 // dual-epoch reads answered by the old epoch
}

// batcherClientBase is the first client ID handed to batcher lanes. Real
// clients use small IDs; starting the lanes this high keeps the lanes'
// timestamp client components collision-free.
const batcherClientBase = 1 << 30

// buildShard constructs the register and initial states for one spec.
func buildShard(spec Spec) (*Shard, []dsys.State, error) {
	if spec.Name == "" {
		return nil, nil, fmt.Errorf("shard: shard with empty name")
	}
	reg, err := register.NewByName(spec.Algorithm, spec.Config)
	if err != nil {
		return nil, nil, fmt.Errorf("shard %q: %w", spec.Name, err)
	}
	init, err := reg.InitialStates(value.Zero(reg.Config().DataLen))
	if err != nil {
		return nil, nil, fmt.Errorf("shard %q: initial states: %w", spec.Name, err)
	}
	return &Shard{Name: spec.Name, Algorithm: spec.Algorithm, Reg: reg, Span: len(init)}, init, nil
}

// New builds the registers named by specs, concatenates their initial base
// object states into one cluster, and returns the shard set. The cluster
// defaults to live mode (the set exists for throughput); pass dsys options to
// override, and dsys.WithMetrics / dsys.WithTracer to instrument the set, its
// batchers and whatever else is built over the cluster. Each shard's initial
// value is the zero value of its size.
func New(specs []Spec, opts ...dsys.Option) (*Set, error) {
	shards, states, err := buildShards(specs)
	if err != nil {
		return nil, err
	}
	all := append([]dsys.Option{dsys.WithLiveMode()}, opts...)
	s := &Set{router: newRouter(shards), regions: shards}
	s.cluster = dsys.NewCluster(states, all...)
	s.nameRegions(shards)
	return s, nil
}

// buildShards builds the registers named by specs, in order, each based
// where the previous one's objects end, and returns them with their
// concatenated initial states.
func buildShards(specs []Spec) ([]*Shard, []dsys.State, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("shard: empty spec list")
	}
	var states []dsys.State
	shards := make([]*Shard, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if seen[spec.Name] {
			return nil, nil, fmt.Errorf("shard: duplicate shard name %q", spec.Name)
		}
		sh, init, err := buildShard(spec)
		if err != nil {
			return nil, nil, err
		}
		seen[spec.Name] = true
		sh.Base = len(states)
		states = append(states, init...)
		shards = append(shards, sh)
	}
	return shards, states, nil
}

// nameRegions gives the cluster's round metrics and round spans the shard
// names to label with.
func (s *Set) nameRegions(shards []*Shard) {
	for _, sh := range shards {
		s.cluster.NameRegion(sh.Base, sh.Name)
	}
}

// NewRemote builds the client side of a sharded deployment: the same
// registers and routing as New, but every quorum round is delivered by inv —
// a transport reaching the processes that actually host the base objects —
// instead of a local engine. Both sides must expand the same specs in the
// same order so the shards' global base offsets agree. Closing the set closes
// inv if it implements io.Closer. opts are passed to dsys.NewRemoteCluster.
func NewRemote(specs []Spec, inv dsys.RoundInvoker, opts ...dsys.Option) (*Set, error) {
	shards, states, err := buildShards(specs)
	if err != nil {
		return nil, err
	}
	s := &Set{router: newRouter(shards), regions: shards}
	// The states live remotely; only their count matters here.
	s.cluster = dsys.NewRemoteCluster(len(states), inv, opts...)
	s.nameRegions(shards)
	return s, nil
}

// Cluster returns the shared cluster.
func (s *Set) Cluster() *dsys.Cluster { return s.cluster }

// Router returns the set's routing table.
func (s *Set) Router() *Router { return s.router }

// AddRegion builds the register named by spec, extends the live cluster with
// its initial base-object states, and returns the new shard. The shard is not
// routed yet — reconfiguration moves install it into the table (as a split
// successor, a drain replacement, or a merge successor). When batching is
// enabled the new shard gets its own batcher.
func (s *Set) AddRegion(spec Spec) (*Shard, error) {
	if s.router.RouteOf(spec.Name) != nil {
		return nil, fmt.Errorf("shard: shard name %q already exists", spec.Name)
	}
	sh, init, err := buildShard(spec)
	if err != nil {
		return nil, err
	}
	s.rmu.Lock()
	base, err := s.cluster.ExtendObjects(init)
	if err != nil {
		s.rmu.Unlock()
		return nil, err
	}
	sh.Base = base
	s.regions = append(s.regions, sh)
	s.rmu.Unlock()
	s.cluster.NameRegion(sh.Base, sh.Name)
	s.bmu.Lock()
	if s.batchCfg != nil {
		s.batchers[sh.Name] = newBatcher(s, sh, *s.batchCfg, batcherClientBase+2*s.nextLane)
		s.nextLane++
	}
	s.bmu.Unlock()
	return sh, nil
}

// RetireShard marks the named route retired and decommissions its object
// region. The caller (the reconfiguration executor) must have drained it.
func (s *Set) RetireShard(name string) error {
	e := s.router.RouteOf(name)
	if e == nil {
		return fmt.Errorf("%w %q", ErrUnknownShard, name)
	}
	s.router.MarkRetired(name)
	return s.cluster.RetireObjects(e.Shard().Base, e.Shard().Span)
}

// Shards returns the non-retired shards in installation order.
func (s *Set) Shards() []*Shard { return s.router.Shards() }

// Shard returns the shard with the given name, or nil. Retired shards are
// still returned (their regions report zero storage).
func (s *Set) Shard(name string) *Shard {
	if e := s.router.RouteOf(name); e != nil {
		return e.Shard()
	}
	return nil
}

// Lineage returns the migration ancestry of the named shard, oldest first.
func (s *Set) Lineage(name string) []string { return s.router.Lineage(name) }

// Region returns the built region with the given name, routed or not, or nil.
// Between a migration's grow and flip steps a successor region exists without
// a route; resuming an interrupted move needs to find it again.
func (s *Set) Region(name string) *Shard {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	for i := len(s.regions) - 1; i >= 0; i-- {
		if s.regions[i].Name == name {
			return s.regions[i]
		}
	}
	return nil
}

// FallbackReads returns how many dual-epoch reads were answered by the old
// epoch (the successor's register was still unwritten).
func (s *Set) FallbackReads() int64 { return s.fallbackReads.Load() }

// ForKey routes a key to a shard: an exact shard name wins, any other key
// hashes (FNV-1a) onto the original shard list and descends through any
// splits. Routing is deterministic across processes and runs; for a table
// that has never been reconfigured it is exactly the static FNV map of PR 1.
func (s *Set) ForKey(key string) *Shard { return s.router.ForKey(key) }

// Run executes fn as the given client scoped to the shard's object region.
// On the live path fn runs inline in the caller's goroutine.
func (s *Set) Run(client int, sh *Shard, fn func(h *dsys.ClientHandle) error) error {
	return s.cluster.RunScoped(client, sh.Base, sh.Span, fn)
}

// EnableBatching installs a group-commit Batcher on every shard: from then
// on, concurrent Write/Read calls on a shard coalesce into shared quorum
// rounds. cfg must be enabled (BatchConfig.Enabled). It must be called before
// the set serves operations (it is not safe to call concurrently with Write or
// Read). Shards added later by reconfiguration get batchers automatically.
func (s *Set) EnableBatching(cfg BatchConfig) {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	s.batchCfg = &cfg
	s.batchers = make(map[string]*Batcher)
	for _, sh := range s.router.Shards() {
		s.batchers[sh.Name] = newBatcher(s, sh, cfg, batcherClientBase+2*s.nextLane)
		s.nextLane++
	}
}

// Batcher returns the named shard's batcher, or nil when batching is off.
func (s *Set) Batcher(name string) *Batcher {
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	return s.batchers[name]
}

// BatchStats sums the batcher counters across all shards; zero when batching
// is disabled.
func (s *Set) BatchStats() BatcherStats {
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	var total BatcherStats
	for _, b := range s.batchers {
		st := b.Stats()
		total.Writes += st.Writes
		total.Reads += st.Reads
		total.WriteRounds += st.WriteRounds
		total.ReadRounds += st.ReadRounds
	}
	return total
}

// WriteValue performs a register write of v on the given shard, through the
// shard's batcher when batching is enabled (the physical round then runs
// under the batcher lane's client ID rather than the caller's). It addresses
// the shard directly, bypassing the routing table — use Write for routed,
// reconfiguration-safe access. On a traced cluster it is a root-span entry
// point: a sampled write's batch wait, quorum rounds, and node-side stages
// all hang under the span opened here.
func (s *Set) WriteValue(client int, sh *Shard, v value.Value) error {
	sp := s.beginOp(sh, "write")
	err := s.writeValue(client, sh, v, sp.Context())
	sp.Done()
	return err
}

// writeValue is WriteValue under an already-decided trace context.
func (s *Set) writeValue(client int, sh *Shard, v value.Value, tc trace.Context) error {
	if b := s.Batcher(sh.Name); b != nil {
		return b.writeTraced(v, tc)
	}
	op := soloOps.Get().(*soloOp)
	op.sh, op.v = sh, v
	err := s.runTraced(client, sh, tc, op.write)
	op.put()
	return err
}

// ReadValue performs a register read on the given shard, through the shard's
// batcher when batching is enabled. Like WriteValue it bypasses the routing
// table and is a root-span entry point on a traced cluster.
func (s *Set) ReadValue(client int, sh *Shard) (value.Value, error) {
	sp := s.beginOp(sh, "read")
	got, err := s.readValue(client, sh, sp.Context())
	sp.Done()
	return got, err
}

// readValue is ReadValue under an already-decided trace context.
func (s *Set) readValue(client int, sh *Shard, tc trace.Context) (value.Value, error) {
	if b := s.Batcher(sh.Name); b != nil {
		return b.readTraced(tc)
	}
	op := soloOps.Get().(*soloOp)
	op.sh = sh
	err := s.runTraced(client, sh, tc, op.read)
	got := op.got
	op.put()
	return got, err
}

// soloOp is an unbatched operation's round, what a batch lane keeps for its
// own (lane.round): its write and read functions are bound to the op once,
// when the pool makes it, so an operation hands RunScoped no closure of its
// own. RunScoped returns only after the function has, in either mode, so an
// op goes back to the pool with nothing still running on it.
type soloOp struct {
	sh    *Shard
	v     value.Value // the value to write
	got   value.Value // what the read returned
	write func(h *dsys.ClientHandle) error
	read  func(h *dsys.ClientHandle) error
}

// soloOps holds ops whose shard and values are cleared.
var soloOps = sync.Pool{New: func() any {
	op := new(soloOp)
	op.write = func(h *dsys.ClientHandle) error { return op.sh.Reg.Write(h, op.v) }
	op.read = func(h *dsys.ClientHandle) (err error) {
		op.got, err = op.sh.Reg.Read(h)
		return err
	}
	return op
}}

// put clears the op, so that the pool pins no shard or value, and returns it.
func (op *soloOp) put() {
	op.sh, op.v, op.got = nil, value.Value{}, value.Value{}
	soloOps.Put(op)
}

// ReadRef performs a read against routes acquired from the set's router
// (Router.AcquireRead) and reports whether the old epoch answered it. With a
// fallback route (migration in progress) it is a dual-epoch read — see
// ReadRouted, the shared implementation — bypassing the batcher, whose group
// commit does not carry timestamps. History recording needs fell: a
// fallback-answered read observed the predecessor's register and must be
// recorded in the predecessor's history, which matters for merges, where the
// predecessor on the key's path may be a pruned branch that never joins the
// successor's stitched lineage.
func (s *Set) ReadRef(client int, ref, fb *Route) (value.Value, bool, error) {
	sp := s.beginOp(ref.Shard(), "read")
	tc := sp.Context()
	if fb == nil {
		v, err := s.readValue(client, ref.Shard(), tc)
		sp.Done()
		return v, false, err
	}
	var got value.Value
	var fell bool
	err := s.cluster.RunScoped(client, 0, s.cluster.N(), func(h *dsys.ClientHandle) error {
		if tc.Sampled() {
			h = h.WithContext(trace.NewContext(context.Background(), tc))
		}
		var err error
		got, fell, err = ReadRouted(h, ref, fb)
		return err
	})
	if fell {
		s.fallbackReads.Add(1)
	}
	sp.Done()
	return got, fell, err
}

// ReadRouted performs a routed read through a whole-cluster handle (live
// Set.ReadRef and the controlled-mode simulator clients share it). Without a
// fallback it is a plain register read. With one — the route is a seeding
// migration successor — it is the dual-epoch read: the successor's register
// is read with its timestamp, and a zero timestamp (no write has reached the
// new epoch yet) falls back to the predecessor's register, so the higher
// (epoch, timestamp) wins. fellBack reports that the old epoch answered.
func ReadRouted(h *dsys.ClientHandle, ref, fb *Route) (v value.Value, fellBack bool, err error) {
	sh := ref.Shard()
	sub, err := h.Sub(sh.Base, sh.Span)
	if err != nil {
		return value.Value{}, false, err
	}
	if fb == nil {
		v, err = sh.Reg.Read(sub)
		return v, false, err
	}
	v, ts, err := sh.Reg.ReadTimestamped(sub)
	if err != nil {
		return value.Value{}, false, err
	}
	if ts != register.ZeroTS {
		return v, false, nil
	}
	fsh := fb.Shard()
	fsub, err := h.Sub(fsh.Base, fsh.Span)
	if err != nil {
		return value.Value{}, false, err
	}
	v, err = fsh.Reg.Read(fsub)
	return v, true, err
}

// Write performs a routed register write of v on the shard key resolves to,
// pinning the route so a concurrent reconfiguration drains it correctly.
func (s *Set) Write(client int, key string, v value.Value) error {
	ref, err := s.router.AwaitAcquireWrite(client, key)
	if err != nil {
		return err
	}
	defer s.router.ReleaseWrite(ref, client)
	return s.WriteValue(client, ref.Shard(), v)
}

// Read performs a routed register read on the shard key resolves to,
// consulting both epochs while that shard is migrating.
func (s *Set) Read(client int, key string) (value.Value, error) {
	ref, fb, err := s.router.AcquireRead(client, key)
	if err != nil {
		return value.Value{}, err
	}
	defer s.router.ReleaseRead(ref, fb, client)
	v, _, err := s.ReadRef(client, ref, fb)
	return v, err
}

// CrashNode crashes the shard-local base object node of the named shard.
func (s *Set) CrashNode(name string, node int) error {
	sh := s.Shard(name)
	if sh == nil {
		return fmt.Errorf("%w %q", ErrUnknownShard, name)
	}
	if node < 0 || node >= sh.Span {
		return fmt.Errorf("shard %q: node %d out of range [0,%d)", name, node, sh.Span)
	}
	return s.cluster.CrashObject(sh.Base + node)
}

// InitialStateOf builds a fresh initial state for the base object with the
// given global ID, using its region's register emulation. Recovery uses it
// as the floor a crashed object's durable records replay on top of.
func (s *Set) InitialStateOf(id int) (dsys.State, error) {
	s.rmu.Lock()
	var owner *Shard
	for _, sh := range s.regions {
		if id >= sh.Base && id < sh.Base+sh.Span {
			owner = sh
			break
		}
	}
	s.rmu.Unlock()
	if owner == nil {
		return nil, fmt.Errorf("shard: no region owns base object %d", id)
	}
	init, err := owner.Reg.InitialStates(value.Zero(owner.Reg.Config().DataLen))
	if err != nil {
		return nil, fmt.Errorf("shard %q: initial states: %w", owner.Name, err)
	}
	return init[id-owner.Base], nil
}

// Close shuts the routing table and the shared cluster down.
func (s *Set) Close() {
	s.router.close()
	s.cluster.Close()
}
