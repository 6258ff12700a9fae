// Package spacebounds is the public facade of a reproduction of
// "Space Bounds for Reliable Storage: Fundamental Limits of Coding"
// (Spiegelman, Cassuto, Chockler, Keidar — PODC 2016).
//
// The paper proves that any lock-free regular register emulation over
// asynchronous fault-prone storage that treats its (symmetric) coding scheme
// as a black box must use Ω(min(f, c)·D) bits of storage, and gives an
// adaptive algorithm combining erasure coding with replication that matches
// the bound with O(min(f, c)·D) bits. This module implements the adaptive
// algorithm, the baselines it is compared against, the lower-bound adversary,
// and the simulation substrate they run on; see DESIGN.md for the full
// inventory.
//
// The facade exposes the most common entry point: a Store that multiplexes
// one or more named register shards over a shared simulated cluster and
// offers keyed Write/Read with per-shard storage-cost introspection. A Store
// opened without explicit shards behaves exactly like the original
// single-register facade. Lower-level control (custom scheduling policies,
// the adversary, workload generation, consistency checking) lives in the
// internal packages and is exercised through cmd/spacebench and the
// examples.
package spacebounds

import (
	"errors"
	"fmt"

	"spacebounds/internal/metrics"
	"spacebounds/internal/node"
	"spacebounds/internal/reconfig"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// Algorithm selects a register emulation.
type Algorithm string

// Available algorithms.
const (
	// Adaptive is the paper's algorithm: erasure coding with a replication
	// fallback, storage O(min(f, c)·D), strongly regular, FW-terminating.
	Adaptive Algorithm = "adaptive"
	// Replication is the ABD baseline: 2f+1 full replicas, storage O(f·D).
	Replication Algorithm = "replication"
	// ErasureCoded is the pure coded baseline: storage Θ(c·D) under
	// concurrency.
	ErasureCoded Algorithm = "erasure"
	// Safe is the Appendix E wait-free safe register: storage n·D/k, but only
	// safe (not regular) semantics.
	Safe Algorithm = "safe"
)

// provider maps a facade algorithm to its register provider name.
func (a Algorithm) provider() (string, error) {
	switch a {
	case Adaptive:
		return "adaptive", nil
	case Replication:
		return "abd", nil
	case ErasureCoded:
		return "ecreg", nil
	case Safe:
		return "safereg", nil
	default:
		return "", fmt.Errorf("spacebounds: unknown algorithm %q", a)
	}
}

// ShardSpec configures one named shard of a Store. Zero fields inherit the
// Store-level defaults from Options, so heterogeneous stores only spell out
// what differs per shard.
type ShardSpec struct {
	// Name identifies the shard; keys equal to a shard name route to that
	// shard, all other keys hash across the shard list.
	Name string
	// Algorithm selects this shard's emulation ("" inherits Options).
	Algorithm Algorithm
	// F, K, ValueSize override the Store-level values when nonzero.
	F, K, ValueSize int
}

// Options configure a Store.
type Options struct {
	// Algorithm selects the emulation; default Adaptive.
	Algorithm Algorithm
	// F is the number of storage-node crashes tolerated per shard (default 1).
	F int
	// K is the erasure-code decode threshold; n = 2F+K nodes are simulated
	// per shard (default K = F; forced to 1 for Replication).
	K int
	// ValueSize is the register value size in bytes (default 1024).
	ValueSize int
	// Shards lists the named shards to multiplex over the shared cluster.
	// Empty means one shard named "default" built from the options above —
	// the original single-register facade.
	Shards []ShardSpec
	// Batch enables client-side group commit (zero value: disabled):
	// concurrent Write/Read calls on a shard coalesce into shared quorum
	// rounds. Per-shard regularity is preserved; storage accounting stays
	// exact.
	Batch BatchOptions
	// Durability enables the write-ahead log: every applied mutating RMW and
	// every reconfiguration ledger transition is journaled to Durability.Dir,
	// Open replays whatever the directory holds before serving, and
	// RestartNode rebuilds a crashed node's state from disk instead of
	// resuming from its pre-crash memory. Zero value: disabled (the store is
	// purely in-memory, as before).
	Durability Durability
	// Metrics, when non-nil, instruments the store against the given registry:
	// per-shard quorum-round latency and outcomes, batch-wait and batch-size
	// distributions, and migration step timings all become live series the
	// registry exports over Prometheus and expvar (see docs/METRICS.md).
	// Nil disables instrumentation at the cost of one predictable branch per
	// hot-path operation.
	Metrics *Metrics
	// Trace, when non-nil, attaches a per-operation tracer: sampled
	// operations record a span per stage (op, batch wait, quorum round, node
	// apply, WAL append/fsync) into the tracer's ring, and reconfiguration
	// moves each record a trace of their ledger steps. Nil disables tracing
	// at the same one-branch cost as Metrics (see docs/TRACING.md).
	Trace *Tracer
}

// Metrics is the store's metrics registry: counters, gauges, and fixed-bucket
// latency histograms exported in Prometheus text format (Handler, or Serve
// for a standalone endpoint) and as expvar JSON (String / PublishExpvar). A
// registry is passive — it only aggregates what instrumented components
// record into it — so one registry may be shared by several Stores and
// anything else that accepts one.
type Metrics = metrics.Registry

// NewMetrics creates an empty metrics registry to pass in Options.Metrics.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// Durability configures the per-store write-ahead log (see internal/wal).
// Setting Dir enables it; the other fields tune the sync and snapshot
// policies. Durable bytes are accounted on their own axis — Storage().Durable,
// never Storage().Bits — because the paper's space measure (Definition 2)
// counts only the bits stored in the volatile base objects.
type Durability struct {
	// Dir is the journal directory (created if absent). Empty disables
	// durability.
	Dir string
	// SyncEvery is the number of appended records between fsyncs (default 1:
	// sync every record — crash-durable but slowest).
	SyncEvery int
	// SnapshotEvery is the number of appended records between background
	// snapshots, which bound log length and replay time (default 4096).
	SnapshotEvery int
}

// BatchOptions configures group commit. The zero value disables batching.
type BatchOptions struct {
	// MaxSize caps the operations per shared quorum round; a positive
	// MaxSize enables batching.
	MaxSize int
}

func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = Adaptive
	}
	if o.F == 0 {
		o.F = 1
	}
	if o.K == 0 {
		o.K = o.F
	}
	if o.ValueSize == 0 {
		o.ValueSize = 1024
	}
	if len(o.Shards) == 0 {
		o.Shards = []ShardSpec{{Name: "default"}}
	} else {
		// Copy before filling defaults so a caller-owned spec slice is not
		// mutated (it may be reused for another Open with different options).
		o.Shards = append([]ShardSpec(nil), o.Shards...)
	}
	for i := range o.Shards {
		s := &o.Shards[i]
		if s.Algorithm == "" {
			s.Algorithm = o.Algorithm
		}
		if s.F == 0 {
			s.F = o.F
		}
		if s.K == 0 {
			s.K = o.K
		}
		if s.ValueSize == 0 {
			s.ValueSize = o.ValueSize
		}
	}
	return o
}

// Store is a fault-tolerant store of one or more register shards over a
// shared simulated cluster of base objects. It is safe for concurrent use by
// multiple goroutines, each of which acts as a distinct client; clients
// operating on keys that route to different shards never contend on a shared
// lock.
type Store struct {
	node *node.Node
	set  *shard.Set // node.Set(), held for the operation path
	def  *shard.Shard

	// resumeHook, when non-nil, replaces ResumeMoves in RestartNode's resume
	// phase; tests inject failures here to exercise the ErrResumeFailed path.
	resumeHook func() error
}

// Metrics returns the registry the store was opened with, or nil when
// instrumentation is disabled.
func (s *Store) Metrics() *Metrics { return s.node.Metrics() }

// Tracer returns the tracer the store was opened with, or nil when tracing is
// disabled.
func (s *Store) Tracer() *Tracer { return s.node.Tracer() }

// Open builds the register shards and their shared simulated cluster.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	specs := make([]shard.Spec, 0, len(opts.Shards))
	for _, s := range opts.Shards {
		prov, err := s.Algorithm.provider()
		if err != nil {
			return nil, err
		}
		specs = append(specs, shard.Spec{
			Name:      s.Name,
			Algorithm: prov,
			Config:    register.Config{F: s.F, K: s.K, DataLen: s.ValueSize},
		})
	}
	n, err := node.Open(node.Config{
		Shards: specs,
		Batch:  shard.BatchConfig{MaxSize: opts.Batch.MaxSize},
		WAL: wal.Config{
			Dir:           opts.Durability.Dir,
			SyncEvery:     opts.Durability.SyncEvery,
			SnapshotEvery: opts.Durability.SnapshotEvery,
		},
		Metrics: opts.Metrics,
		Tracer:  opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Store{node: n, set: n.Set(), def: n.Set().Shards()[0]}, nil
}

// Algorithm returns the name of the default (first) shard's emulation.
func (s *Store) Algorithm() string { return s.def.Reg.Name() }

// Nodes returns the number of live (non-retired) simulated base objects
// across all shards (2f+k per shard; reconfiguration retires regions and
// grows new ones).
func (s *Store) Nodes() int { return s.set.Cluster().LiveObjectCount() }

// FaultTolerance returns f for the default shard, the number of its node
// crashes tolerated.
func (s *Store) FaultTolerance() int { return s.def.Reg.Config().F }

// ValueSize returns the default shard's register value size in bytes.
func (s *Store) ValueSize() int { return s.def.Reg.Config().DataLen }

// Shards returns the shard names in declaration order.
func (s *Store) Shards() []string {
	out := make([]string, 0, len(s.set.Shards()))
	for _, sh := range s.set.Shards() {
		out = append(out, sh.Name)
	}
	return out
}

// pad zero-pads val to the shard's value size, rejecting oversized values.
// The Value adopts the padded copy, so val is copied once and the caller may
// reuse it as soon as the write returns.
func pad(sh *shard.Shard, val []byte) (value.Value, error) {
	size := sh.Reg.Config().DataLen
	if len(val) > size {
		return value.Value{}, fmt.Errorf("spacebounds: value of %d bytes exceeds register size %d of shard %q", len(val), size, sh.Name)
	}
	padded := make([]byte, size)
	copy(padded, val)
	return value.Adopt(padded), nil
}

// WriteKey stores val under key: the key routes to a shard (exact shard name,
// otherwise by hash) and the write runs on that shard's register. Keys are
// routing labels, not map entries — every key on a shard addresses the same
// register, so a later write under any key of the shard supersedes earlier
// ones, exactly as in the paper's register model. For key-value semantics,
// give each key its own shard (see examples/kvstore).
func (s *Store) WriteKey(client int, key string, val []byte) error {
	// The key is routed once, and the value padded against the shard it is
	// then written to.
	rt := s.set.Router()
	ref, err := rt.AwaitAcquireWrite(client, key)
	if err != nil {
		return err
	}
	defer rt.ReleaseWrite(ref, client)
	v, err := pad(ref.Shard(), val)
	if err != nil {
		return err
	}
	return s.set.WriteValue(client, ref.Shard(), v)
}

// ReadKey returns the current value of the shard the key routes to. While
// that shard is being migrated the read consults both epochs and the higher
// (epoch, timestamp) wins.
func (s *Store) ReadKey(client int, key string) ([]byte, error) {
	got, err := s.set.Read(client, key)
	if err != nil {
		return nil, err
	}
	return got.Bytes(), nil
}

// CrashNode crashes one simulated base object by global ID (shards occupy
// contiguous ID ranges in declaration order). Up to FaultTolerance() nodes
// per shard may be crashed while preserving availability.
func (s *Store) CrashNode(id int) error { return s.set.Cluster().CrashObject(id) }

// CrashShardNode crashes node (shard-local, 0-based) of the shard key routes
// to.
func (s *Store) CrashShardNode(key string, node int) error {
	return s.set.CrashNode(s.set.ForKey(key).Name, node)
}

// Restart error classes. RestartNode does two separable jobs — bring the
// node back, then resume any interrupted reconfiguration — and its callers
// need to know which one failed: a restart failure means the node is still
// down and the call may be retried; a resume failure means the node is UP and
// only the interrupted move still needs driving (retry the restart and the
// quorum protocols stay correct, but ResumeMoves alone is cheaper).
var (
	// ErrRestartFailed wraps failures of the restart phase: the node did not
	// come back (and, on a durable store, its on-disk state was not replayed).
	ErrRestartFailed = errors.New("spacebounds: node restart failed")
	// ErrResumeFailed wraps failures of the resume phase: the node IS back,
	// but the interrupted reconfiguration could not be resumed. The ledger
	// entry stays interrupted and re-drivable via ResumeMoves.
	ErrResumeFailed = errors.New("spacebounds: resuming interrupted reconfiguration failed")
)

// RestartNode brings a crashed node back. On an in-memory store it resumes
// with the state it had when it crashed (fail-recover): writes that raced the
// crash window are lost on that node, exactly like messages to a down
// replica, and the quorum protocols repair on the next operations. On a
// durable store the node instead rebuilds from the write-ahead log — fresh
// initial state, then snapshot and journaled RMWs replayed — so it returns
// with everything it had acknowledged before the crash, wiped memory
// notwithstanding. Restarting is also the store's recovery entry point: if
// the reconfiguration ledger holds a move whose driver died mid-migration,
// the restart resumes it (see ResumeMoves). The in-flight check is done
// before touching the reconfiguration lock, so a restart never blocks behind
// a healthy migration another goroutine is driving. Failures are classed:
// errors.Is(err, ErrRestartFailed) means the node is still down; errors.Is(
// err, ErrResumeFailed) means the node is up and only the interrupted move
// still needs driving — callers must not conflate the two, which is why the
// resume error never travels unwrapped.
func (s *Store) RestartNode(id int) error {
	cl := s.set.Cluster()
	if j := s.node.Journal(); j != nil && cl.ObjectDown(id) {
		fresh, err := s.set.InitialStateOf(id)
		if err != nil {
			return fmt.Errorf("%w: node %d: %w", ErrRestartFailed, id, err)
		}
		if _, err := j.ReplayObject(cl, id, fresh); err != nil {
			return fmt.Errorf("%w: node %d: rebuilding state from the write-ahead log: %w", ErrRestartFailed, id, err)
		}
	}
	if err := cl.RestartObject(id); err != nil {
		return fmt.Errorf("%w: node %d: %w", ErrRestartFailed, id, err)
	}
	if fl := s.node.Coordinator().InFlight(); fl == nil || !fl.Interrupted {
		return nil
	}
	resume := s.resumeHook
	if resume == nil {
		resume = func() error { _, err := s.ResumeMoves(); return err }
	}
	if err := resume(); err != nil {
		return fmt.Errorf("%w: node %d restarted: %w", ErrResumeFailed, id, err)
	}
	return nil
}

// BatchStats reports the group-commit amortization across all shards:
// operations completed through the batchers and the physical quorum rounds
// that carried them. All zeros when batching is disabled.
type BatchStats struct {
	// Writes and Reads count operations completed through the batchers.
	Writes, Reads int
	// WriteRounds and ReadRounds count the physical quorum rounds dispatched
	// to carry them; ops/rounds is the amortization factor per direction.
	WriteRounds, ReadRounds int
}

// BatchStats returns the store-wide group-commit counters.
func (s *Store) BatchStats() BatchStats {
	st := s.set.BatchStats()
	return BatchStats{Writes: st.Writes, Reads: st.Reads, WriteRounds: st.WriteRounds, ReadRounds: st.ReadRounds}
}

// Storage is one storage sample of a Store: the code-block bits held by base
// objects (the paper's Definition 2) and the write-ahead log's durable bits,
// each attributed to shards from the same sample, so Bits == Σ Shards[].Bits
// and Durable == Σ Shards[].Durable + Ledger exactly, even mid-flight.
type Storage = shard.Storage

// ShardStorage is one shard's share of a Storage sample.
type ShardStorage = shard.ShardStorage

// Storage samples the store's storage once. At quiescence an adaptive shard
// holds (2f+k)/k·D bits; while c writes are in flight Theorem 2 bounds it by
// O(min(f, c)·D). Durable bits never count toward Bits: the paper's space
// measure charges only the volatile base objects, and the log is a different
// resource with a different lifecycle (snapshots truncate it, not the
// protocol). Without durability the durable fields are zero.
func (s *Store) Storage() Storage { return s.set.Storage() }

// StorageBits returns Storage().Bits. It remains only because the benchmark
// harness calls it, and goes with ROADMAP.md item 1b, when that harness
// builds its processes through internal/node.
func (s *Store) StorageBits() int { return s.Storage().Bits }

// ReconfigStats aggregates the reconfiguration subsystem's counters.
type ReconfigStats struct {
	// Epoch is the current routing epoch (0 until the first move).
	Epoch int64
	// Splits, Drains, Merges count completed moves.
	Splits, Drains, Merges int
	// Resumes counts takeovers of interrupted moves (a move interrupted
	// twice counts twice, whatever its eventual outcome); Aborts counts
	// cleanly rolled-back moves.
	Resumes, Aborts int
	// SeedWrites counts migration-writer replays into successor shards.
	SeedWrites int
	// FallbackReads counts dual-epoch reads answered by the old epoch.
	FallbackReads int64
	// HeldWrites counts writes that waited for a migration to seed their
	// shard.
	HeldWrites int64
}

// apply runs one move through the store's coordinator.
func (s *Store) apply(mv reconfig.Move) (reconfig.Event, error) {
	return s.node.Coordinator().ApplyLive(mv)
}

// SplitShard splits the named shard into two successors on fresh base-object
// regions while the store keeps serving: the shard's keyspace re-partitions
// across the successors, its latest value is replayed into both by the
// migration writer, reads during the migration consult both epochs, and the
// old region is retired once drained. It returns the successor shard names.
func (s *Store) SplitShard(name string) ([]string, error) {
	ev, err := s.apply(reconfig.Move{Kind: reconfig.MoveSplit, Shard: name})
	if err != nil {
		return nil, err
	}
	return ev.Successors, nil
}

// DrainShard migrates the named shard onto a single fresh region — same
// routing position, new nodes — and retires the old region. It returns the
// replacement shard's name.
func (s *Store) DrainShard(name string) (string, error) {
	ev, err := s.apply(reconfig.Move{Kind: reconfig.MoveDrain, Shard: name})
	if err != nil {
		return "", err
	}
	return ev.Successors[0], nil
}

// MergeShards merges two shards into a single successor on a fresh region —
// the inverse of SplitShard — while the store keeps serving. Keys of both
// sources route to the successor, which is seeded with the latest value of
// the source that wins the (installation epoch, timestamp) ordering; the
// other source's value is discarded with its register, exactly like the
// value ordering of a dual-epoch read. It returns the successor shard name.
func (s *Store) MergeShards(a, b string) (string, error) {
	ev, err := s.apply(reconfig.Move{Kind: reconfig.MoveMerge, Shard: a, Shard2: b})
	if err != nil {
		return "", err
	}
	return ev.Successors[0], nil
}

// ResumeMoves re-drives a reconfiguration move whose driver died
// mid-migration, picking up from the step ledger's last completed step. A
// live store's moves normally run synchronously inside SplitShard, DrainShard
// and MergeShards, so there is usually nothing to do; the method exists for
// the fail-recover path (RestartNode calls it) and for embedders driving moves
// from their own goroutines. It reports how many moves were resumed.
func (s *Store) ResumeMoves() (int, error) { return s.node.Coordinator().ResumeLive() }

// ReconfigStats returns the reconfiguration counters.
func (s *Store) ReconfigStats() ReconfigStats {
	st := s.node.Coordinator().Stats()
	return ReconfigStats{
		Epoch: st.Epoch, Splits: st.Splits, Drains: st.Drains, Merges: st.Merges,
		Resumes: st.Resumes, Aborts: st.Aborts,
		SeedWrites: st.SeedWrites, FallbackReads: st.FallbackReads, HeldWrites: st.HeldWrites,
	}
}

// Close shuts the cluster down and closes the write-ahead log. A move that
// was mid-way through stays in the ledger for the next open's ResumeMoves.
// Close implements io.Closer; closing an already-closed store is a no-op.
func (s *Store) Close() error { return s.node.Close() }
