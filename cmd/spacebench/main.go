// Command spacebench runs the experiment suite that regenerates the paper's
// analytic results (see DESIGN.md E1-E8) and prints each result as a table,
// or — with -sim — explores seeded adversarial fault schedules against every
// register provider with the deterministic simulator and checks the recorded
// histories against the paper's consistency conditions, every operation's end
// against its liveness condition, and the storage of every run, at every
// step and once it quiesces, against the space bound.
//
// Usage:
//
//	spacebench                 # run every experiment
//	spacebench -exp E3,E4      # run a subset
//	spacebench -list           # list experiments
//	spacebench -markdown       # emit GitHub-flavoured markdown tables
//	spacebench -sim -seeds 500 -sim-out sim-failures.txt
//
// With -connect, spacebench is instead a client of a real multi-process
// cluster: it dials the given spacenode addresses, runs a keyed, optionally
// Zipf-skewed sharded workload over the TCP envelope transport with history
// recording, reports ops/sec, and checks the recorded histories against the
// provider's consistency condition — the same checkers the deterministic
// simulator uses. The checkers assume the registers start from their initial
// value with this run's writes the only writes, so run one checked client per
// cluster lifetime: a second run against nodes that kept state from an earlier
// run reads values the checker never saw written and reports false violations.
//
//	spacebench -connect 127.0.0.1:9001,127.0.0.1:9002 -algo adaptive -shards 4 -clients 4 -ops 200
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"spacebounds/internal/experiments"
	"spacebounds/internal/history"
	"spacebounds/internal/metrics"
	"spacebounds/internal/node"
	"spacebounds/internal/shard"
	"spacebounds/internal/sim"
	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
	"spacebounds/internal/workload"
)

// cliConfig carries every parsed flag; it exists so that flag parsing and
// command dispatch are unit-testable without a process boundary.
type cliConfig struct {
	// Experiment mode.
	exp      string
	list     bool
	markdown bool

	// Client mode.
	connect     string
	recordOut   string
	metricsAddr string
	shards      int
	skew        float64
	clients     int
	ops         int
	keys        int
	reads       float64
	valueSize   int
	algo        string
	f           int
	k           int
	batch       int
	arrivalRate float64

	// Shared by client and simulation mode.
	seed int64

	// Tracing (client mode).
	traceSample float64
	traceSlow   time.Duration
	traceOut    string
	tracePeers  string

	// Simulation mode.
	sim             bool
	seeds           int
	simProviders    string
	simShards       int
	simClients      int
	simOps          int
	simOut          string
	simReconfSplits int
	simReconfDrains int
	simReconfMerges int
	simCtrlCrashes  int
}

// parseArgs parses command-line arguments. Usage and error text go to
// errOut.
func parseArgs(args []string, errOut io.Writer) (*cliConfig, error) {
	c := &cliConfig{}
	fs := flag.NewFlagSet("spacebench", flag.ContinueOnError)
	fs.SetOutput(errOut)

	fs.StringVar(&c.exp, "exp", "", "comma-separated experiment IDs to run (default: all)")
	fs.BoolVar(&c.list, "list", false, "list available experiments and exit")
	fs.BoolVar(&c.markdown, "markdown", false, "emit markdown tables instead of plain text")

	fs.StringVar(&c.connect, "connect", "", "comma-separated spacenode addresses; runs the workload as a client of that cluster (client mode)")
	fs.StringVar(&c.recordOut, "record-out", "", "write the recorded per-shard histories to this file when the consistency check fails (client mode)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and expvar /debug/vars on this address during the run (client mode; empty: disabled)")
	fs.IntVar(&c.shards, "shards", 8, "number of register shards (client mode)")
	fs.Float64Var(&c.skew, "skew", 0, "Zipf key-skew exponent; > 1 skews, otherwise uniform (client mode)")
	fs.IntVar(&c.clients, "clients", 8, "concurrent clients (client mode)")
	fs.IntVar(&c.ops, "ops", 2000, "operations per client (client mode)")
	fs.IntVar(&c.keys, "keys", 64, "distinct keys (client mode)")
	fs.Float64Var(&c.reads, "reads", 0.1, "fraction of operations that are reads (client mode)")
	fs.IntVar(&c.valueSize, "valuesize", 1024, "value size in bytes (client mode)")
	fs.StringVar(&c.algo, "algo", "adaptive", "register provider per shard: adaptive, abd, ecreg, safereg (client mode)")
	fs.IntVar(&c.f, "f", 2, "crash failures tolerated per shard (client mode)")
	fs.IntVar(&c.k, "k", 2, "erasure decode threshold per shard (client mode)")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed / first simulation seed; fixed seeds make runs reproducible, e.g. in CI")
	fs.IntVar(&c.batch, "batch", 0, "group commit: max ops per shared round; 0 disables (client mode)")
	fs.Float64Var(&c.arrivalRate, "arrival-rate", 0, "open-loop arrivals per second per client; 0 keeps the closed loop (client mode)")
	fs.Float64Var(&c.traceSample, "trace-sample", 0, "probability an operation is traced end to end; 1 traces every op (client mode)")
	fs.DurationVar(&c.traceSlow, "trace-slow", 0, "retain whole-trace captures of ops slower than this (client mode; 0: disabled)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the merged trace dump (client spans plus every -trace-peers scrape) to this JSON file (client mode)")
	fs.StringVar(&c.tracePeers, "trace-peers", "", "comma-separated node metrics addresses whose /debug/trace to scrape into the final summary and -trace-out (client mode)")

	fs.BoolVar(&c.sim, "sim", false, "explore seeded adversarial fault schedules with the deterministic simulator")
	fs.IntVar(&c.seeds, "seeds", 50, "number of seeds per simulated configuration (sim mode)")
	fs.StringVar(&c.simProviders, "sim-providers", strings.Join(sim.DefaultProviders, ","),
		"comma-separated register providers to simulate (sim mode)")
	fs.IntVar(&c.simShards, "sim-shards", 2, "shards per provider configuration (sim mode)")
	fs.IntVar(&c.simClients, "sim-clients", 3, "clients per shard (sim mode)")
	fs.IntVar(&c.simOps, "sim-ops", 4, "operations per client (sim mode)")
	fs.StringVar(&c.simOut, "sim-out", "", "write the failure report (seeds, shrunken histories) to this file (sim mode)")
	fs.IntVar(&c.simReconfSplits, "sim-reconfig-splits", 1, "splits per reconfiguration-enabled sweep configuration; setting splits, drains and merges all to 0 disables the reconfig sweep (sim mode)")
	fs.IntVar(&c.simReconfDrains, "sim-reconfig-drains", 1, "drains per reconfiguration-enabled sweep configuration (sim mode)")
	fs.IntVar(&c.simReconfMerges, "sim-reconfig-merges", 1, "merges per reconfiguration-enabled sweep configuration (sim mode)")
	fs.IntVar(&c.simCtrlCrashes, "sim-controller-crashes", 0, "controller-crash budget per reconfiguration-enabled run: the adversary kills the migration controller between migration steps and a standby resumes the move from its ledger (sim mode)")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return c, nil
}

// execute dispatches the parsed configuration. Normal output goes to out.
func (c *cliConfig) execute(out io.Writer) error {
	switch {
	case c.connect != "":
		return runClient(c, out)
	case c.sim:
		return runSim(c, out)
	default:
		return runExperiments(c, out)
	}
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintf(os.Stderr, "spacebench: %v\n", err)
		os.Exit(2)
	}
	if err := cfg.execute(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "spacebench: %v\n", err)
		os.Exit(1)
	}
}

// simConfiguration is one named entry of the exploration sweep.
type simConfiguration struct {
	name string
	cfg  sim.Config
}

// simSweep builds the configuration matrix: every provider × the requested
// shard count with concurrent clients, a sequential (single-client)
// configuration per provider that additionally checks linearizability —
// sequential operations make regularity and atomicity coincide, so the
// Wing&Gong checker is sound there — a reconfiguration-enabled configuration
// per provider (splits and drains land mid-run and the stitched cross-epoch
// histories are checked), and a mixed-provider configuration.
func simSweep(providers []string, shards, clients, ops int, reconfig sim.ReconfigPlan) []simConfiguration {
	var out []simConfiguration
	for _, p := range providers {
		plans := make([]sim.ShardPlan, shards)
		for i := range plans {
			plans[i] = sim.ShardPlan{Provider: p}
		}
		out = append(out, simConfiguration{
			name: fmt.Sprintf("%s x%d", p, shards),
			cfg:  sim.Config{Shards: plans, Clients: clients, OpsPerClient: ops},
		})
		out = append(out, simConfiguration{
			name: fmt.Sprintf("%s sequential", p),
			cfg: sim.Config{
				Shards:            []sim.ShardPlan{{Provider: p}},
				Clients:           1,
				OpsPerClient:      ops + 2,
				CheckLinearizable: true,
			},
		})
		if reconfig.Enabled() {
			out = append(out, simConfiguration{
				name: fmt.Sprintf("%s reconfig", p),
				cfg: sim.Config{
					Shards:       plans,
					Clients:      clients,
					OpsPerClient: ops + 2,
					Reconfig:     reconfig,
				},
			})
		}
	}
	if len(providers) > 1 {
		plans := make([]sim.ShardPlan, len(providers))
		for i, p := range providers {
			plans[i] = sim.ShardPlan{Provider: p}
		}
		out = append(out, simConfiguration{
			name: "mixed providers",
			cfg:  sim.Config{Shards: plans, Clients: clients, OpsPerClient: ops},
		})
		if reconfig.Enabled() {
			out = append(out, simConfiguration{
				name: "mixed reconfig",
				cfg:  sim.Config{Shards: plans, Clients: clients, OpsPerClient: ops, Reconfig: reconfig},
			})
		}
	}
	return out
}

// runSim sweeps the configuration matrix over the seed range, prints one
// verdict line per configuration, and fails (after writing the replayable
// failure report) if any seed violated its consistency condition, its
// liveness condition or the space bound.
func runSim(c *cliConfig, out io.Writer) error {
	if c.seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1")
	}
	providers := strings.Split(c.simProviders, ",")
	for i := range providers {
		providers[i] = strings.TrimSpace(providers[i])
	}
	sweep := simSweep(providers, c.simShards, c.simClients, c.simOps,
		sim.ReconfigPlan{Splits: c.simReconfSplits, Drains: c.simReconfDrains,
			Merges: c.simReconfMerges, ControllerCrashes: c.simCtrlCrashes})
	var failures []*sim.Result
	for _, sc := range sweep {
		fails, err := sim.Explore(sc.cfg, c.seed, c.seeds)
		if err != nil {
			return fmt.Errorf("configuration %q: %w", sc.name, err)
		}
		verdict := "ok"
		if len(fails) > 0 {
			verdict = fmt.Sprintf("%d FAILING SEEDS", len(fails))
		}
		fmt.Fprintf(out, "sim %-22s seeds %d..%d: %s\n", sc.name, c.seed, c.seed+int64(c.seeds)-1, verdict)
		failures = append(failures, fails...)
	}
	fmt.Fprintf(out, "sim: swept %d configurations x %d seeds, %d failing seeds\n",
		len(sweep), c.seeds, len(failures))
	if len(failures) == 0 {
		return nil
	}
	report := &strings.Builder{}
	for _, f := range failures {
		report.WriteString(sim.FormatFailure(f))
		fmt.Fprintf(report, "replay: spacebench -sim -seeds 1 -seed %d\n\n", f.Seed)
	}
	if c.simOut != "" {
		if err := os.WriteFile(c.simOut, []byte(report.String()), 0o644); err != nil {
			return fmt.Errorf("writing failure report: %w", err)
		}
		fmt.Fprintf(out, "failure report written to %s\n", c.simOut)
	}
	fmt.Fprint(out, report.String())
	return fmt.Errorf("%d seeds violated their consistency condition, their liveness condition or the space bound", len(failures))
}

// runClient dials a spacenode cluster, runs the sharded workload over the
// TCP envelope transport with history recording, and checks the recorded
// histories against the provider's consistency condition: strong regularity
// for the regular emulations, strong safety for the safe register.
func runClient(c *cliConfig, out io.Writer) error {
	addrs := strings.Split(c.connect, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	layout := c.layout()
	specs, err := layout.Specs()
	if err != nil {
		return err
	}
	// Client runs are always instrumented: the transport and quorum-round
	// histograms cost next to nothing next to real network RPCs, and the
	// run ends with a latency summary. -metrics-addr additionally serves
	// the registry live during the run.
	reg := metrics.NewRegistry()
	var tr *trace.Tracer
	if c.traceEnabled() {
		tr = trace.New(trace.Options{
			Sample:  c.traceSample,
			Slow:    c.traceSlow,
			Proc:    "client",
			Node:    -1,
			Metrics: reg,
		})
	}
	if c.metricsAddr != "" {
		msrv, err := metrics.Serve(c.metricsAddr, reg,
			metrics.Mount{Pattern: "/debug/trace", Handler: tr.Handler()})
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(out, "METRICS %s\n", msrv.Addr())
	}
	n, err := node.Connect(addrs, node.Config{Shards: specs, Batch: shard.BatchConfig{MaxSize: c.batch}, Metrics: reg, Tracer: tr})
	if err != nil {
		return err
	}
	defer n.Close()

	start := time.Now()
	res, err := workload.RunSharded(n.Set(), workload.ShardedSpec{
		Clients:       c.clients,
		OpsPerClient:  c.ops,
		ReadFraction:  c.reads,
		Keys:          c.keys,
		ZipfS:         c.skew,
		Seed:          c.seed,
		ArrivalRate:   c.arrivalRate,
		RecordHistory: true,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	total := res.CompletedWrites + res.CompletedReads
	fmt.Fprintf(out, "client: %d nodes, %d shards (%s, f=%d, k=%d), %d clients × %d ops\n",
		len(addrs), layout.Shards, layout.Algorithm, layout.F, layout.K, c.clients, c.ops)
	fmt.Fprintf(out, "  completed: %d ops (%d writes, %d reads) in %v  ->  %.0f ops/s\n",
		total, res.CompletedWrites, res.CompletedReads, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	if res.WriteErrors+res.ReadErrors > 0 {
		fmt.Fprintf(out, "  errors: %d writes, %d reads (nodes down mid-run count here; completed ops must still be consistent)\n",
			res.WriteErrors, res.ReadErrors)
	}
	fmt.Fprintln(out, "  metrics summary:")
	reg.WriteSummary(out)
	if tr != nil {
		peers := scrapePeerTraces(c.tracePeers, out)
		spans := tr.Snapshot()
		for _, pd := range peers {
			spans = append(spans, pd.Spans...)
		}
		printSlowOps(out, spans, 5)
		if c.traceOut != "" {
			if err := writeMergedDump(c.traceOut, tr, peers); err != nil {
				fmt.Fprintf(out, "  (failed to write %s: %v)\n", c.traceOut, err)
			} else {
				fmt.Fprintf(out, "  trace dump written to %s\n", c.traceOut)
			}
		}
	}
	if total == 0 {
		// An empty history passes every checker trivially; a run where nothing
		// completed is a dead cluster, not a consistent one.
		return fmt.Errorf("no operations completed (%d write errors, %d read errors)",
			res.WriteErrors, res.ReadErrors)
	}

	var checkErr error
	condition := "strong regularity"
	if c.algo == "safereg" {
		condition = "strong safety"
		for name, h := range res.Histories {
			if err := history.CheckStrongSafety(h); err != nil {
				checkErr = fmt.Errorf("shard %q: %w", name, err)
				break
			}
		}
	} else {
		checkErr = res.CheckRegularity()
	}
	if checkErr == nil {
		fmt.Fprintf(out, "  history check: %s ok (%d shards)\n", condition, len(res.Histories))
		return nil
	}
	if c.recordOut != "" {
		if werr := os.WriteFile(c.recordOut, []byte(formatHistories(res.Histories)), 0o644); werr != nil {
			fmt.Fprintf(out, "  (failed to write %s: %v)\n", c.recordOut, werr)
		} else {
			fmt.Fprintf(out, "  recorded histories written to %s\n", c.recordOut)
		}
	}
	return fmt.Errorf("history violates %s: %w", condition, checkErr)
}

// formatHistories dumps the recorded per-shard histories, one operation per
// line, for offline analysis of a failed run.
func formatHistories(hs map[string]*history.History) string {
	names := make([]string, 0, len(hs))
	for name := range hs {
		names = append(names, name)
	}
	sort.Strings(names)
	b := &strings.Builder{}
	for _, name := range names {
		fmt.Fprintf(b, "shard %s:\n", name)
		for _, op := range hs[name].Ops {
			fmt.Fprintf(b, "  %s\n", op)
		}
	}
	return b.String()
}

// layout is the deployment the layout flags describe, with the k the
// assembly will actually build.
func (c *cliConfig) layout() transport.Layout {
	return transport.Layout{
		Algorithm: c.algo,
		Shards:    c.shards,
		F:         c.f,
		K:         node.EffectiveK(c.algo, c.k),
		ValueSize: c.valueSize,
	}
}

func runExperiments(c *cliConfig, out io.Writer) error {
	all := experiments.All()
	if c.list {
		for _, e := range all {
			fmt.Fprintf(out, "%-4s %-55s (%s)\n", e.ID, e.Title, e.PaperSource)
		}
		return nil
	}
	selected := all
	if c.exp != "" {
		selected = selected[:0]
		for _, id := range strings.Split(c.exp, ",") {
			e := experiments.ByID(strings.TrimSpace(id))
			if e == nil {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, *e)
		}
	}
	for i, e := range selected {
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if c.markdown {
			fmt.Fprint(out, tbl.Markdown())
		} else {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, tbl.Format())
		}
	}
	return nil
}
