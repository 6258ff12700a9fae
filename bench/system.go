package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"spacebounds"
	"spacebounds/internal/dsys"
	_ "spacebounds/internal/register/adaptive"
	"spacebounds/internal/shard"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

const algorithm = "adaptive"

// walSyncEvery is the journals' fsync cadence on tcp-durable: ROADMAP's
// "SyncEvery 64 on a real file" rung. The WAL directory has to be inside the
// checkout, which is a disk, and at SyncEvery=1 the workload measured that
// disk: ops/s moved between 430 and 530 from one minute to the next (p95
// spread 30-40 % over ten runs, against 6-10 % at 64). At 64 every record is
// still encoded, checksummed, framed and written under the apply lock, one
// append in 64 also waits for the device (about one op in eight, so
// write_p95_us sees it), and what the numbers price is mostly the
// repository's WAL path.
const walSyncEvery = 64

// system is what a workload's clients drive. write and read time the single
// call into the program and nothing else: routing a key to its shard, copying
// the payload into a value and copying the result out happen outside the
// timed interval.
type system interface {
	write(client, key int, buf []byte) (start time.Time, took time.Duration, err error)
	read(client, key int) (got []byte, start time.Time, took time.Duration, err error)
	// shardOf maps a key index to the index of the register it aliases onto.
	shardOf(key int) int
	// storageBits sums the code-block bits held by every base object.
	storageBits() int
	// batchStats reports operations and the physical rounds that carried
	// them; zero when group commit is off.
	batchStats() (ops, rounds int)
	close() error
}

// tcpNode is one in-process spacenode: a full object table of which it hosts
// its round-robin share, an optional journal, and a TCP server in front.
type tcpNode struct {
	set     *shard.Set
	journal *wal.Journal
	srv     *transport.Server
	addr    string
	replay  wal.ReplayStats
	// replayTook is how long Journal.Replay ran when the node started.
	replayTook time.Duration
}

// startNode wires a node exactly as cmd/spacenode's run does, minus the
// metrics registry and tracer: shard.New → wal.Open/Replay/Attach →
// transport.NewServer(WithHosts) → Listen.
func startNode(layout transport.Layout, idx int, walDir string, tr *tracer) (_ *tcpNode, err error) {
	specs, err := layout.Specs()
	if err != nil {
		return nil, err
	}
	n := &tcpNode{}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	if n.set, err = shard.New(specs); err != nil {
		return nil, err
	}
	if walDir != "" {
		if n.journal, err = wal.Open(wal.Config{Dir: walDir, SyncEvery: walSyncEvery}); err != nil {
			return nil, err
		}
		if tr != nil {
			n.journal.SetMetrics(tr.walReg)
		}
		t0 := time.Now()
		if n.replay, err = n.journal.Replay(n.set.Cluster()); err != nil {
			return nil, fmt.Errorf("wal replay: %w", err)
		}
		n.replayTook = time.Since(t0)
		n.journal.Attach(n.set.Cluster())
		if tr != nil {
			n.set.Cluster().SetJournal(tr.journal(idx, n.journal))
		}
	}
	n.srv = transport.NewServer(n.set.Cluster(), transport.WithHosts(layout.HostedBy(tcpNodes, idx)))
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.addr = addr.String()
	return n, nil
}

// close tears the node down in spacenode's order: server, journal, set.
func (n *tcpNode) close() error {
	var errs []error
	if n.srv != nil {
		errs = append(errs, n.srv.Close())
	}
	if n.journal != nil {
		errs = append(errs, n.journal.Close())
	}
	if n.set != nil {
		n.set.Close()
	}
	return errors.Join(errs...)
}

// tcpSystem is a 4-node loopback cluster in this process plus one
// transport.Dial client: real sockets, but one scheduler and one GC.
type tcpSystem struct {
	w      workload
	layout transport.Layout
	nodes  []*tcpNode
	client *transport.Client
	set    *shard.Set
	routes []*shard.Shard // key index → shard
	shard  []int          // key index → shard index
}

func (w workload) layout() transport.Layout {
	return transport.Layout{Algorithm: algorithm, Shards: w.shards, F: w.f, K: w.k, ValueSize: w.valueSize}
}

// openTCP starts the nodes (replaying whatever walRoot already holds) and
// dials them. tr, when non-nil, decorates the client's round invoker and
// erasure code and every node's journal.
func openTCP(w workload, walRoot string, tr *tracer) (_ *tcpSystem, err error) {
	s := &tcpSystem{w: w, layout: w.layout()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	addrs := make([]string, tcpNodes)
	for i := range addrs {
		walDir := ""
		if w.wal {
			walDir = filepath.Join(walRoot, fmt.Sprintf("node-%d", i))
		}
		n, err := startNode(s.layout, i, walDir, tr)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, n)
		addrs[i] = n.addr
	}
	specs, err := s.layout.Specs()
	if err != nil {
		return nil, err
	}
	if s.client, err = transport.Dial(addrs); err != nil {
		return nil, err
	}
	var inv dsys.RoundInvoker = s.client
	if tr != nil {
		inv = tr.invoker(s.client)
		for i := range specs {
			cfg, err := specs[i].Config.Validate()
			if err != nil {
				return nil, err
			}
			specs[i].Config.Code = tr.code(cfg.Code)
		}
	}
	if s.set, err = shard.NewRemote(specs, inv); err != nil {
		return nil, err
	}
	index := make(map[*shard.Shard]int)
	for i, sh := range s.set.Shards() {
		index[sh] = i
	}
	s.routes = make([]*shard.Shard, w.keys)
	s.shard = make([]int, w.keys)
	for k := range s.routes {
		s.routes[k] = s.set.ForKey(keyName(k))
		s.shard[k] = index[s.routes[k]]
	}
	return s, nil
}

func (s *tcpSystem) write(client, key int, buf []byte) (time.Time, time.Duration, error) {
	sh := s.routes[key]
	v := value.FromBytes(buf)
	start := time.Now()
	err := s.set.WriteValue(client, sh, v)
	return start, time.Since(start), err
}

func (s *tcpSystem) read(client, key int) ([]byte, time.Time, time.Duration, error) {
	sh := s.routes[key]
	start := time.Now()
	v, err := s.set.ReadValue(client, sh)
	took := time.Since(start)
	if err != nil {
		return nil, start, took, err
	}
	return v.Bytes(), start, took, nil
}

func (s *tcpSystem) shardOf(key int) int { return s.shard[key] }

// storageBits sums, node by node, the bits of the objects that node hosts;
// the unhosted entries of a node's table keep their initial pieces forever
// and are not part of the cluster's state.
func (s *tcpSystem) storageBits() int {
	total := 0
	for i, n := range s.nodes {
		hosted := s.layout.HostedBy(tcpNodes, i)
		for obj, bits := range n.set.Cluster().SampleStorage().PerObjectBits {
			if hosted(obj) {
				total += bits
			}
		}
	}
	return total
}

func (s *tcpSystem) batchStats() (int, int) { return 0, 0 }

// durableBytes sums the journals' on-disk footprint (log + snapshot).
func (s *tcpSystem) durableBytes() int64 {
	var total int64
	for _, n := range s.nodes {
		if n.journal != nil {
			total += n.journal.LogBytes() + n.journal.SnapshotBytes()
		}
	}
	return total
}

func (s *tcpSystem) close() error {
	var errs []error
	if s.set != nil {
		s.set.Close()
	}
	if s.client != nil {
		errs = append(errs, s.client.Close())
	}
	for _, n := range s.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

// inprocSystem is the public facade: no socket, no envelope, no disk.
type inprocSystem struct {
	store *spacebounds.Store
	keys  []string
	shard []int // key index → shard index
}

func shardName(i int) string { return fmt.Sprintf("s%d", i) }

// facadeSpecs are the shard.Specs spacebounds.Open builds for w; a shard.Set
// made from them routes keys exactly as the store does (routing is a pure
// function of the shard names), which is how the harness learns which
// register a key aliases onto without an accessor on the facade.
func facadeSpecs(w workload) []shard.Spec {
	specs, _ := w.layout().Specs() // shards ≥ 1 in every workload
	for i := range specs {
		specs[i].Name = shardName(i)
	}
	return specs
}

func openInproc(w workload) (*inprocSystem, error) {
	router, err := shard.New(facadeSpecs(w))
	if err != nil {
		return nil, err
	}
	defer router.Close()
	index := make(map[string]int)
	named := make([]spacebounds.ShardSpec, w.shards)
	for i := range named {
		named[i] = spacebounds.ShardSpec{Name: shardName(i)}
		index[shardName(i)] = i
	}
	s := &inprocSystem{keys: make([]string, w.keys), shard: make([]int, w.keys)}
	for k := range s.keys {
		s.keys[k] = keyName(k)
		s.shard[k] = index[router.ForKey(s.keys[k]).Name]
	}
	s.store, err = spacebounds.Open(spacebounds.Options{
		Algorithm: spacebounds.Adaptive,
		F:         w.f,
		K:         w.k,
		ValueSize: w.valueSize,
		Shards:    named,
		Batch:     spacebounds.BatchOptions{MaxSize: w.batch},
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *inprocSystem) write(client, key int, buf []byte) (time.Time, time.Duration, error) {
	start := time.Now()
	err := s.store.WriteKey(client, s.keys[key], buf)
	return start, time.Since(start), err
}

func (s *inprocSystem) read(client, key int) ([]byte, time.Time, time.Duration, error) {
	start := time.Now()
	got, err := s.store.ReadKey(client, s.keys[key])
	return got, start, time.Since(start), err
}

func (s *inprocSystem) shardOf(key int) int { return s.shard[key] }
func (s *inprocSystem) storageBits() int    { return s.store.StorageBits() }

func (s *inprocSystem) batchStats() (int, int) {
	st := s.store.BatchStats()
	return st.Writes + st.Reads, st.WriteRounds + st.ReadRounds
}

func (s *inprocSystem) close() error { return s.store.Close() }
