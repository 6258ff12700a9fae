// Command spacenode hosts one node's share of a sharded deployment's base
// objects behind the TCP envelope transport. Every node of a cluster is
// started with the same layout flags and its own -node index; clients
// (spacebench -connect) expand the same layout, so object placement needs no
// runtime coordination.
//
// The node prints "LISTENING <addr>" once it accepts connections — start it
// with -listen 127.0.0.1:0 and scrape the line to learn the ephemeral port.
//
// A node restarted after a crash has lost its base objects' state. Restart it
// with -recover: read-only rounds are refused per object until a mutating
// round has applied there, so the recovered node re-joins quorums without
// ever serving its empty state as if it were current.
//
// With -wal-dir the node journals every applied mutating round to a
// write-ahead log and, on restart, replays the log before listening — the
// replayed objects come back with their pre-crash state and serve reads
// immediately, even under -recover (replay marks them repaired). The node
// prints "WAL REPLAY <stats>" after a replay so operators can see what was
// recovered.
//
// Usage:
//
//	spacenode -listen 127.0.0.1:9001 -node 0 -nodes 4 -algo adaptive -shards 4 -f 1 -k 1
//	spacenode -listen 127.0.0.1:9001 -node 0 -nodes 4 -wal-dir /var/lib/spacenode-0 -recover ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spacebounds/internal/metrics"
	"spacebounds/internal/node"
	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
	"spacebounds/internal/wal"
)

// nodeConfig carries the parsed flags.
type nodeConfig struct {
	listen      string
	node        int
	nodes       int
	algo        string
	shards      int
	f, k        int
	valueSize   int
	recovery    bool
	metricsAddr string

	traceSample float64
	traceSlow   time.Duration

	walDir    string
	walSyncEv int
	walSnapEv int
}

func parseArgs(args []string, errOut io.Writer) (*nodeConfig, error) {
	c := &nodeConfig{}
	fs := flag.NewFlagSet("spacenode", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "address to listen on (port 0 picks an ephemeral port)")
	fs.IntVar(&c.node, "node", 0, "this node's index in [0,nodes)")
	fs.IntVar(&c.nodes, "nodes", 1, "total number of nodes in the deployment")
	fs.StringVar(&c.algo, "algo", "adaptive", "register provider per shard: adaptive, abd, ecreg, safereg")
	fs.IntVar(&c.shards, "shards", 1, "number of shards")
	fs.IntVar(&c.f, "f", 1, "crash failures tolerated per shard")
	fs.IntVar(&c.k, "k", 1, "erasure decode threshold per shard")
	fs.IntVar(&c.valueSize, "valuesize", 64, "value size in bytes")
	fs.BoolVar(&c.recovery, "recover", false, "start in recovery mode: refuse reads per object until a write has applied (use after a crash)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics, expvar /debug/vars, pprof /debug/pprof/ and the trace dump /debug/trace on this address (empty: disabled; port 0 picks an ephemeral port)")
	fs.Float64Var(&c.traceSample, "trace-sample", 1, "probability of locally originated traces; requests arriving with a wire trace context are always recorded (needs -metrics-addr)")
	fs.DurationVar(&c.traceSlow, "trace-slow", 0, "retain whole-trace captures of ops slower than this (0: disabled)")
	fs.StringVar(&c.walDir, "wal-dir", "", "write-ahead log directory: journal applied rounds and replay them before serving (empty: in-memory only)")
	fs.IntVar(&c.walSyncEv, "wal-sync-every", 1, "records appended between fsyncs (1: sync every record)")
	fs.IntVar(&c.walSnapEv, "wal-snapshot-every", 0, "records appended between snapshots, which truncate the log (0: default 4096)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if c.nodes < 1 || c.node < 0 || c.node >= c.nodes {
		return nil, fmt.Errorf("-node %d out of range [0,%d)", c.node, c.nodes)
	}
	return c, nil
}

// run starts the node and blocks until stop is signalled.
func run(c *nodeConfig, out io.Writer, stop <-chan os.Signal) error {
	layout := transport.Layout{
		Algorithm: c.algo,
		Shards:    c.shards,
		F:         c.f,
		K:         node.EffectiveK(c.algo, c.k),
		ValueSize: c.valueSize,
	}
	specs, err := layout.Specs()
	if err != nil {
		return err
	}
	cfg := node.Config{
		Shards: specs,
		WAL:    wal.Config{Dir: c.walDir, SyncEvery: c.walSyncEv, SnapshotEvery: c.walSnapEv},
	}
	if c.metricsAddr != "" {
		cfg.Metrics = metrics.NewRegistry()
		cfg.Tracer = trace.New(trace.Options{
			Sample:  c.traceSample,
			Slow:    c.traceSlow,
			Proc:    fmt.Sprintf("node-%d", c.node),
			Node:    c.node,
			Metrics: cfg.Metrics,
		})
		msrv, err := metrics.Serve(c.metricsAddr, cfg.Metrics,
			metrics.Mount{Pattern: "/debug/trace", Handler: cfg.Tracer.Handler()})
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(out, "METRICS %s\n", msrv.Addr())
	}
	// The node builds the full cluster's object table but hosts only its
	// placement's slice; hosting is a predicate, not a copy, so the unhosted
	// objects cost a few empty structs. Open replays the write-ahead log, so
	// by the time Serve listens the node cannot answer a single round with
	// state older than what it journaled.
	n, err := node.Open(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	if n.Journal() != nil {
		fmt.Fprintf(out, "WAL REPLAY %s\n", n.Replay())
	}
	addr, err := n.Serve(c.listen, c.nodes, c.node, c.recovery)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "LISTENING %s\n", addr)
	fmt.Fprintf(out, "spacenode %d/%d: %s, %d shards (f=%d, k=%d), hosting %d of %d objects, recovery=%v\n",
		c.node, c.nodes, c.algo, c.shards, c.f, layout.K,
		countHosted(layout, c.nodes, c.node), layout.TotalObjects(), c.recovery)
	<-stop
	return nil
}

func countHosted(l transport.Layout, nodes, node int) int {
	hosted := 0
	for obj := 0; obj < l.TotalObjects(); obj++ {
		if l.HostedBy(nodes, node)(obj) {
			hosted++
		}
	}
	return hosted
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintf(os.Stderr, "spacenode: %v\n", err)
		os.Exit(2)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, os.Stdout, stop); err != nil {
		fmt.Fprintf(os.Stderr, "spacenode: %v\n", err)
		os.Exit(1)
	}
}
