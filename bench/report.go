package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// savedRun is one child run as the runner keeps it.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	resultLine
}

// resultSet is the file the runner writes and -compare reads.
type resultSet struct {
	Info    sysInfo    `json:"info"`
	Seconds float64    `json:"seconds"`
	WALFS   string     `json:"wal_filesystem"`
	Runs    []savedRun `json:"runs"`
}

// runChild runs one workload in a fresh process, passing its output through,
// and parses the result line it ends with.
func runChild(ctx context.Context, o *options, workload string, seed int64, traceOut string, stdout io.Writer) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace}
	if o.walDir != "" {
		args = append(args, "-wal-dir", o.walDir)
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) } // let the child remove its WAL directory
	cmd.WaitDelay = 10 * time.Second
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		fmt.Fprintln(stdout, last)
		if waitErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, waitErr)
		}
		return nil, fmt.Errorf("%s: last line of output is not a result: %w", workload, err)
	}
	// A child that failed a check still printed its result; keep it.
	return &line, nil
}

// runSets is the runner: every workload, each in a fresh child process,
// -repeat times over; the set is saved, and with -repeat > 1 each metric's
// spread is set against its bound.
func runSets(ctx context.Context, o *options, spec *benchmarkSpec, root string, stdout io.Writer) error {
	kind := "e2e"
	if o.traced {
		kind = "traced"
	}
	out := o.out
	if out == "" {
		out = filepath.Join(root, "bench", "out", fmt.Sprintf("%s-%d.json", kind, os.Getpid()))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	walParent := o.walDir
	if walParent == "" {
		walParent = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(walParent, 0o755); err != nil {
		return err
	}
	set := resultSet{Info: collectSysInfo(), Seconds: o.seconds, WALFS: fsType(walParent)}
	incorrect := 0
	for rep := 0; rep < o.repeat; rep++ {
		seed := o.seed + int64(rep)*o.seedStep
		for _, w := range workloads {
			if o.workload != "" && o.workload != w.name {
				continue
			}
			traceOut := ""
			if o.traced {
				traceOut = filepath.Join(filepath.Dir(out), fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
			}
			line, err := runChild(ctx, o, w.name, seed, traceOut, stdout)
			if err != nil {
				return err
			}
			if !line.Correct {
				incorrect++
			}
			set.Runs = append(set.Runs, savedRun{Workload: w.name, Seed: seed, Traced: o.traced, resultLine: *line})
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result set written to %s\n", out)
	if o.repeat > 1 {
		printSpreads(stdout, spec.defs(o.traced), &set)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed a check", incorrect)
	}
	return nil
}

// valuesOf collects one metric's values on one workload across a set's runs.
func (s *resultSet) valuesOf(workload, metric string) []float64 {
	var vals []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// verdict sets a spread against a bound: "steady" below a third of it (what
// the benchmark aims for), "within" up to it, and "unresolved" beyond — a
// difference that small cannot be told from noise. Metrics without a bound
// get no verdict.
func verdict(spread, bound float64) string {
	switch {
	case bound == 0:
		return ""
	case spread <= bound/3:
		return "steady"
	case spread <= bound:
		return "within"
	}
	return "unresolved"
}

func printSpreads(out io.Writer, defs []metricDef, set *resultSet) {
	fmt.Fprintf(out, "\n%-15s %-30s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	for _, w := range workloads {
		for _, d := range defs {
			vals := set.valuesOf(w.name, d.Name)
			if len(vals) < 2 {
				continue
			}
			q1, q3 := quartiles(vals)
			sp := spread(vals)
			fmt.Fprintf(out, "%-15s %-30s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %s\n",
				w.name, d.Name, median(vals), q1, q3, sp*100, d.Bound*100, verdict(sp, d.Bound))
		}
	}
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is by how much of a's median b's median is worse.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "lower" {
		return (b - a) / a
	}
	return (a - b) / a
}

// compareFiles applies the benchmark's rule to two saved sets: per end-to-end
// metric and workload, b may be worse than a by at most the bound; where
// either side's own spread exceeds the bound the pair is unresolved, not
// unchanged. It fails when a resolved metric regressed.
func compareFiles(out io.Writer, spec *benchmarkSpec, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-15s %-22s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "")
	regressed := 0
	for _, w := range workloads {
		for _, d := range spec.EndToEnd {
			va, vb := a.valuesOf(w.name, d.Name), b.valuesOf(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse := worsening(d, median(va), median(vb))
			sa, sb := spread(va), spread(vb)
			v := "ok"
			switch {
			case sa > d.Bound || sb > d.Bound:
				v = "unresolved"
			case worse > d.Bound:
				v = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(out, "%-15s %-22s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, d.Name, median(va), median(vb), worse*100, sa*100, sb*100, d.Bound*100, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
