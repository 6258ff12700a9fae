// Command bench is the repository's benchmark: four closed-loop workloads
// over real loopback sockets, a real write-ahead log and the public facade,
// measured from outside the program through seams it already has. See
// README.md in this directory for every workload and metric.
//
// Usage (from the checkout root; run.sh builds this package into
// .bench_build and runs it):
//
//	bash bench/run.sh                          every workload once, end-to-end metrics
//	bash bench/run.sh -trace 1                 every workload once, per-layer metrics + span files
//	bash bench/run.sh -repeat 10               ten sets with seeds 1..10, then spread against bounds
//	bash bench/run.sh -compare a.json b.json   two saved sets against the bounds
//	bash bench/run.sh --workload tcp-small --seed 1 --seconds 20 --trace 0
//
// The last form is what the acceptance driver calls: one workload in this
// process, with one JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	walDir   string
	traceOut string
	out      string
	repeat   int
	seedStep int64
	compare  bool
}

func parseFlags(args []string, spec *benchmarkSpec) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload, in this process unless -repeat is given (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for key choice, the read/write coin and the payload templates")
	fs.Float64Var(&o.seconds, "seconds", float64(spec.RunSeconds), "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	fs.StringVar(&o.walDir, "wal-dir", "", "directory in which WAL directories are made (default: .bench_build in the checkout)")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -workload and -trace 1: write the span file here")
	fs.StringVar(&o.out, "out", "", "where the runner saves its result set (default: bench/out/<kind>-<pid>.json)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the set this many times and report each metric's spread against its bound")
	fs.Int64Var(&o.seedStep, "seed-step", 1, "with -repeat: added to the seed for every further set (0 repeats one seed)")
	fs.BoolVar(&o.compare, "compare", false, "compare two saved result sets: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if *trace != 0 && *trace != 1 {
		return nil, nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o.traced = *trace == 1
	if _, ok := workloadByName(o.workload); !ok && o.workload != "" {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return nil, nil, fmt.Errorf("-seconds and -repeat must be positive")
	}
	return o, fs.Args(), nil
}

// reported is one metric of the contract's result line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// buildLine pairs the run's numbers with BENCHMARK.json's names and units; a
// name on one side only is an error, so the two lists cannot drift.
func buildLine(res *result, defs []metricDef) (*resultLine, error) {
	line := &resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]reported{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json defines %q but the run did not measure it", d.Name)
		}
		line.Metrics[d.Name] = reported{Value: v, Unit: d.Unit}
	}
	for name := range res.metrics {
		if _, ok := line.Metrics[name]; !ok {
			return nil, fmt.Errorf("the run measured %q but BENCHMARK.json does not define it", name)
		}
	}
	return line, nil
}

// printMetrics lists every metric by name with its unit and, for timings,
// the sample count behind it.
func printMetrics(out io.Writer, name string, line *resultLine, samples map[string]int) {
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Fprintf(out, "%s: %-32s %14.4f %s", name, n, m.Value, m.Unit)
		if c, ok := samples[n]; ok {
			fmt.Fprintf(out, "  (n=%d)", c)
		}
		fmt.Fprintln(out)
	}
}

// runOne is the single-workload mode.
func runOne(ctx context.Context, o *options, spec *benchmarkSpec, root string, stdout io.Writer) error {
	w, _ := workloadByName(o.workload)
	info := collectSysInfo()
	fmt.Fprintf(stdout, "%s: seed=%d seconds=%g traced=%v commit=%s %s nproc=%d GOMAXPROCS=%d kernel=%s\n",
		w.name, o.seed, o.seconds, o.traced, info.Commit, info.GoVersion, info.NumCPU, info.GOMAXPROCS, info.Kernel)
	res, err := run(ctx, runConfig{
		w: w, seed: o.seed, seconds: o.seconds, traced: o.traced,
		walDir: o.walDir, traceOut: o.traceOut, root: root, log: stdout,
	})
	if err != nil {
		return err
	}
	line, err := buildLine(res, spec.defs(o.traced))
	if err != nil {
		return err
	}
	if w.wal {
		fmt.Fprintf(stdout, "%s: WAL filesystem: %s\n", w.name, res.walFS)
	}
	printMetrics(stdout, w.name, line, res.samples)
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !line.Correct {
		return fmt.Errorf("%d check(s) failed", len(res.failures))
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := realMain(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, args []string, stdout io.Writer) error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	o, rest, err := parseFlags(args, spec)
	if err != nil {
		return err
	}
	switch {
	case o.compare:
		if len(rest) != 2 {
			return fmt.Errorf("-compare needs two result files, got %d", len(rest))
		}
		return compareFiles(stdout, spec, rest[0], rest[1])
	case len(rest) > 0:
		return fmt.Errorf("unexpected arguments: %v", rest)
	case o.workload != "" && o.repeat == 1:
		return runOne(ctx, o, spec, root, stdout)
	}
	return runSets(ctx, o, spec, root, stdout)
}
