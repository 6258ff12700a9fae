package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// traceSpan mirrors the trace dump's span shape; the test decodes the JSON by
// hand so it stays a black-box client of the wire format.
type traceSpan struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Stage  string `json:"stage"`
	Proc   string `json:"proc"`
}

// traceDump is the subset of the /debug/trace body the test needs.
type traceDump struct {
	Proc  string      `json:"proc"`
	Spans []traceSpan `json:"spans"`
}

// TestClusterTraceEndToEnd is the black-box test of the tracing surface: a
// 4-node cluster with write-ahead logs serves /debug/trace on every process
// while a fully-sampled spacebench -connect run is in flight, one node is
// SIGKILLed mid-run and restarted with -recover on its log, and the merged
// dump the client writes must stitch the recovered node's apply and WAL spans
// into complete traces rooted at client ops — the recovered process knew
// nothing but the trace context each request envelope carried.
func TestClusterTraceEndToEnd(t *testing.T) {
	bin := t.TempDir()
	nodeBin := filepath.Join(bin, "spacenode")
	benchBin := filepath.Join(bin, "spacebench")
	buildBinary(t, nodeBin, "spacebounds/cmd/spacenode")
	buildBinary(t, benchBin, "spacebounds/cmd/spacebench")

	const (
		nodes  = 4
		shards = 2
		victim = 2
	)
	layoutArgs := []string{
		"-nodes", fmt.Sprint(nodes),
		"-algo", "adaptive", "-shards", fmt.Sprint(shards), "-f", "1", "-k", "1", "-valuesize", "64",
	}
	procs := make([]*exec.Cmd, nodes)
	addrs := make([]string, nodes)
	maddrs := make([]string, nodes)
	for n := 0; n < nodes; n++ {
		procs[n], addrs[n], maddrs[n] = startNodeWithMetrics(t, nodeBin, append([]string{
			"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-wal-dir", filepath.Join(bin, fmt.Sprintf("wal%d", n)),
			"-node", fmt.Sprint(n),
		}, layoutArgs...))
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
		}
	}()

	mergedFile := filepath.Join(bin, "merged.json")
	clientOut := &bytes.Buffer{}
	client := exec.Command(benchBin,
		"-connect", strings.Join(addrs, ","),
		"-algo", "adaptive", "-shards", fmt.Sprint(shards), "-f", "1", "-k", "1", "-valuesize", "64",
		"-clients", "3", "-ops", "120", "-arrival-rate", "100",
		"-keys", "8", "-reads", "0.4", "-seed", "7", "-batch", "4",
		"-trace-sample", "1", "-trace-out", mergedFile,
		"-trace-peers", strings.Join(maddrs, ","),
		"-metrics-addr", "127.0.0.1:0",
	)
	stdout, err := client.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	client.Stderr = clientOut
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	metricsLine := make(chan string, 1)
	outDone := make(chan string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			if rest, ok := strings.CutPrefix(line, "METRICS "); ok {
				select {
				case metricsLine <- rest:
				default:
				}
			}
		}
		outDone <- strings.Join(lines, "\n")
	}()
	var clientMetrics string
	select {
	case clientMetrics = <-metricsLine:
	case <-time.After(10 * time.Second):
		t.Fatal("client did not report METRICS")
	}

	// Mid-run, every process serves /debug/trace; the client and at least the
	// still-alive nodes must already hold spans.
	waitForTraceSpans(t, clientMetrics, "client")
	for n := 0; n < nodes; n++ {
		if n != victim {
			waitForTraceSpans(t, maddrs[n], fmt.Sprintf("node-%d", n))
		}
	}

	// Kill the victim hard mid-run and restart it in recovery mode on the same
	// ports, replaying its write-ahead log. Its pre-crash flight recorder dies
	// with it; everything it contributes to the merge below was recorded after
	// the restart, parented only by wire trace contexts.
	time.Sleep(300 * time.Millisecond)
	if err := procs[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	_ = procs[victim].Wait()
	time.Sleep(300 * time.Millisecond)
	procs[victim], _, _ = startNodeWithMetrics(t, nodeBin, append([]string{
		"-listen", addrs[victim], "-metrics-addr", maddrs[victim],
		"-wal-dir", filepath.Join(bin, fmt.Sprintf("wal%d", victim)),
		"-node", fmt.Sprint(victim), "-recover",
	}, layoutArgs...))

	waitErr := client.Wait()
	out := <-outDone
	if waitErr != nil {
		t.Fatalf("client failed: %v\noutput:\n%s\nstderr:\n%s", waitErr, out, clientOut.String())
	}
	if !strings.Contains(out, "slowest traced ops:") {
		t.Fatalf("client output missing the slowest-ops trace summary:\n%s", out)
	}
	if !strings.Contains(out, "trace dump written to") {
		t.Fatalf("client output missing the trace dump line:\n%s", out)
	}

	// The merged dump must stitch every stage across all processes.
	data, err := os.ReadFile(mergedFile)
	if err != nil {
		t.Fatalf("reading merged dump: %v", err)
	}
	var dump traceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("parsing %s: %v", mergedFile, err)
	}
	stages := map[string]int{}
	procSpans := map[string]int{}
	for _, s := range dump.Spans {
		stages[s.Stage]++
		procSpans[s.Proc]++
	}
	for _, stage := range []string{"op", "batch-wait", "quorum-round", "rpc", "apply", "wal-append", "wal-fsync"} {
		if stages[stage] == 0 {
			t.Errorf("merged dump has no %q spans (stages: %v)", stage, stages)
		}
	}

	// The recovered victim's spans must stitch into complete traces: an apply
	// span it recorded after the restart parents under a client RPC span whose
	// trace is rooted at a client op span.
	roots := map[uint64]bool{}  // trace -> has client root op span
	rpcIDs := map[uint64]bool{} // client rpc span IDs
	for _, s := range dump.Spans {
		if s.Proc == "client" && s.Stage == "op" && s.Parent == 0 {
			roots[s.Trace] = true
		}
		if s.Proc == "client" && s.Stage == "rpc" {
			rpcIDs[s.ID] = true
		}
	}
	victimProc := fmt.Sprintf("node-%d", victim)
	stitched, orphans := 0, 0
	for _, s := range dump.Spans {
		if s.Stage != "apply" {
			continue
		}
		if !rpcIDs[s.Parent] {
			orphans++
		} else if s.Proc == victimProc && roots[s.Trace] {
			stitched++
		}
	}
	// No gaps: a round that stops waiting at its quorum still records the
	// straggler's rpc span (noted abandoned), so every apply has its parent.
	if orphans > 0 {
		t.Errorf("merged dump holds %d apply spans whose parent rpc span is absent", orphans)
	}
	if procSpans[victimProc] == 0 {
		t.Fatalf("merged dump holds no spans from the recovered %s (procs: %v)", victimProc, procSpans)
	}
	if stitched == 0 {
		t.Fatalf("no %s apply span stitches under a client RPC span of a rooted trace (procs: %v)", victimProc, procSpans)
	}
	t.Logf("merged dump: %d spans, stages %v, procs %v, %d stitched recovered applies",
		len(dump.Spans), stages, procSpans, stitched)
}

// waitForTraceSpans polls addr's /debug/trace until it reports at least one
// span from the expected process.
func waitForTraceSpans(t *testing.T, addr, wantProc string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var d traceDump
		if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/debug/trace")), &d); err != nil {
			t.Fatalf("parsing /debug/trace from %s: %v", addr, err)
		}
		if d.Proc != wantProc {
			t.Fatalf("/debug/trace on %s reports proc %q, want %q", addr, d.Proc, wantProc)
		}
		if len(d.Spans) > 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("/debug/trace on %s (%s) never reported spans", addr, wantProc)
}
