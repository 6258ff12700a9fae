// Package node assembles a process. Whatever a process of this system is — the
// in-process store behind the public facade, a spacenode hosting its share of
// a cluster's base objects, or a client of such a cluster — it is a shard set
// with a reconfiguration coordinator and, optionally, a batch engine, a
// write-ahead log, instrumentation and a TCP server, and the way those are
// wired together is decided here and nowhere else:
//
//	(a) specs: abd, the one provider whose constructor requires it, gets
//	    k = 1; every other provider keeps the k it was given (EffectiveK);
//	(b) batching: either batch field enables group commit;
//	(c) durability: open the log, attach its hooks, restore the move ledger,
//	    replay, attach — all before Serve listens, which marks replayed
//	    objects repaired first;
//	(d) instrumentation: the cluster is built with the one registry and the
//	    one tracer, and the set, the coordinator, the journal and the server
//	    read them from it; the client takes them as options;
//	(e, f) moves: every live move of the process goes through the node's one
//	    coordinator (its ApplyLive/ResumeLive own the serialization and the
//	    migration-writer client IDs);
//	(g) teardown: server, set, journal, in that order.
//
// The deterministic simulator, the experiments and the adversary build bare
// controlled-mode clusters for model runs; they are not processes and do not
// come through here (TestOneAssembly in the root package holds the line).
package node

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/reconfig"
	_ "spacebounds/internal/register/abd" // every process can build every provider
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
	"spacebounds/internal/shard"
	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
	"spacebounds/internal/wal"
)

// Config describes a process. The zero value of every field but Shards means
// "off".
type Config struct {
	// Shards lists the registers to build, in object-table order. Every
	// process of one deployment must pass the same list.
	Shards []shard.Spec
	// Batch enables client-side group commit when either field is set.
	Batch shard.BatchConfig
	// WAL enables the write-ahead log when Dir is set. Ignored by Connect.
	WAL wal.Config
	// Metrics and Tracer, when non-nil, instrument every component.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// LayoutSpecs expands the layout flags every binary takes into shard specs
// named prefix0 … prefixN-1.
func LayoutSpecs(l transport.Layout, prefix string) ([]shard.Spec, error) {
	specs, err := l.Specs()
	if err != nil {
		return nil, err
	}
	for i := range specs {
		specs[i].Name = prefix + strconv.Itoa(i)
	}
	return specs, nil
}

// EffectiveK is the layout k-rule: abd replicates — its constructor accepts
// no other k — so its k is 1 whatever the layout said; every other provider
// keeps the k it was given. Open and Connect apply it to every spec, so the
// hosting and the client side of a deployment cannot disagree; a binary that
// prints its layout applies it to what it prints.
func EffectiveK(provider string, k int) int {
	if provider == "abd" {
		return 1
	}
	return k
}

// normalize returns a copy of specs with the layout k-rule applied.
func normalize(specs []shard.Spec) []shard.Spec {
	out := append([]shard.Spec(nil), specs...)
	for i := range out {
		out[i].Config.K = EffectiveK(out[i].Algorithm, out[i].Config.K)
	}
	return out
}

// Node is one assembled process. It is safe for concurrent use.
type Node struct {
	set   *shard.Set
	recon *reconfig.Coordinator

	journal *wal.Journal // nil without a WAL
	replay  wal.ReplayStats

	mu     sync.Mutex
	srv    *transport.Server // nil until Serve
	closed bool
}

// Open builds a process that holds the base objects itself.
func Open(cfg Config) (*Node, error) {
	set, err := shard.New(normalize(cfg.Shards), dsys.WithMetrics(cfg.Metrics), dsys.WithTracer(cfg.Tracer))
	if err != nil {
		return nil, err
	}
	n := assemble(set, cfg)
	if cfg.WAL.Dir != "" {
		if err := n.openJournal(cfg.WAL); err != nil {
			_ = n.Close()
			return nil, err
		}
	}
	return n, nil
}

// Connect builds a client process: the same registers and routing as Open
// over the same specs, with every quorum round delivered over TCP to the
// processes at addrs, which host the objects round-robin.
func Connect(addrs []string, cfg Config) (*Node, error) {
	cli, err := transport.Dial(addrs, transport.WithMetrics(cfg.Metrics), transport.WithTracer(cfg.Tracer))
	if err != nil {
		return nil, err
	}
	set, err := shard.NewRemote(normalize(cfg.Shards), cli, dsys.WithMetrics(cfg.Metrics), dsys.WithTracer(cfg.Tracer))
	if err != nil {
		_ = cli.Close()
		return nil, err
	}
	return assemble(set, cfg), nil
}

// assemble wires what Open and Connect share: batching and the coordinator.
func assemble(set *shard.Set, cfg Config) *Node {
	n := &Node{set: set, recon: reconfig.NewCoordinator(set)}
	if cfg.Batch.Enabled() {
		set.EnableBatching(cfg.Batch)
	}
	return n
}

// openJournal opens the write-ahead log and replays whatever it holds into
// the freshly built cluster and ledger, and only then attaches it for
// journaling new operations — replayed records must not be re-journaled.
func (n *Node) openJournal(cfg wal.Config) error {
	j, err := wal.Open(cfg)
	if err != nil {
		return err
	}
	n.journal = j
	j.SetMetrics(n.Metrics())
	moves := j.Moves()
	states := make([]reconfig.MoveState, 0, len(moves))
	for _, mr := range moves {
		ms, err := reconfig.DecodeMoveState(mr.Payload)
		if err != nil {
			return fmt.Errorf("node: restoring reconfiguration ledger: move %d: %w", mr.ID, err)
		}
		states = append(states, ms)
	}
	if err := n.recon.RestoreLedger(states); err != nil {
		return fmt.Errorf("node: restoring reconfiguration ledger: %w", err)
	}
	if n.replay, err = j.Replay(n.set.Cluster()); err != nil {
		return fmt.Errorf("node: replaying write-ahead log: %w", err)
	}
	j.Attach(n.set.Cluster())
	n.recon.SetJournal(j)
	return nil
}

// Serve starts answering quorum rounds on listen for the objects that
// round-robin placement over nodes processes gives to process index. With
// recovery set the server refuses read-only rounds per object until a mutating
// round has applied there — except for objects the write-ahead log replayed,
// which hold current state already. It returns the bound address.
func (n *Node) Serve(listen string, nodes, index int, recovery bool) (net.Addr, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, net.ErrClosed
	}
	if n.srv != nil {
		return nil, errors.New("node: already serving")
	}
	place := transport.RoundRobin(nodes)
	opts := []transport.ServerOption{
		transport.WithHosts(func(object int) bool { return place(object) == index }),
	}
	if recovery {
		opts = append(opts, transport.WithRecovery())
	}
	srv := transport.NewServer(n.set.Cluster(), opts...)
	if n.journal != nil {
		for obj := 0; obj < n.set.Cluster().N(); obj++ {
			if n.journal.Covered(obj) {
				srv.MarkRepaired(obj)
			}
		}
	}
	addr, err := srv.Listen(listen)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return addr, nil
}

// Set returns the node's shard set.
func (n *Node) Set() *shard.Set { return n.set }

// Coordinator returns the process's one reconfiguration coordinator.
func (n *Node) Coordinator() *reconfig.Coordinator { return n.recon }

// Metrics returns Config.Metrics.
func (n *Node) Metrics() *metrics.Registry { return n.set.Cluster().Metrics() }

// Tracer returns Config.Tracer.
func (n *Node) Tracer() *trace.Tracer { return n.set.Cluster().Tracer() }

// Journal returns the write-ahead log, or nil when the node has none.
func (n *Node) Journal() *wal.Journal { return n.journal }

// Replay reports what Open replayed from the write-ahead log.
func (n *Node) Replay() wal.ReplayStats { return n.replay }

// Close tears the process down: the server first, so no round arrives at a
// closing cluster; then the set — and with it, for a client, the transport;
// and the journal last, once nothing applies any more. Closing a closed node
// is a no-op.
func (n *Node) Close() error {
	n.mu.Lock()
	srv, closed := n.srv, n.closed
	n.closed = true
	n.mu.Unlock()
	if closed {
		return nil
	}
	var errs []error
	if srv != nil {
		errs = append(errs, srv.Close())
	}
	n.set.Close()
	if n.journal != nil {
		errs = append(errs, n.journal.Close())
	}
	return errors.Join(errs...)
}
