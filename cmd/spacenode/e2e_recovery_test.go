package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestClusterRecoveryEndToEnd is the black-box test of durable recovery: a
// 4-node cluster journals to per-node WAL directories, one node is killed
// with SIGKILL mid-run and restarted as a FRESH process — wiped memory, same
// WAL directory — and must come back by replaying its journal before
// listening. The paced client must finish with strong regularity intact, and
// the restarted node must prove it recovered from disk (its WAL REPLAY line
// reports applied records), not from writes repairing it afterwards. The
// journals snapshot often, so the node is killed while writing over a
// recycled segment file.
func TestClusterRecoveryEndToEnd(t *testing.T) {
	opsPerClient, rate := 240, 120.0
	killAt, restartAt := 500*time.Millisecond, 1000*time.Millisecond
	if testing.Short() {
		opsPerClient, rate = 120, 150.0
		killAt, restartAt = 300*time.Millisecond, 600*time.Millisecond
	}

	bin := t.TempDir()
	nodeBin := filepath.Join(bin, "spacenode")
	benchBin := filepath.Join(bin, "spacebench")
	buildBinary(t, nodeBin, "spacebounds/cmd/spacenode")
	buildBinary(t, benchBin, "spacebounds/cmd/spacebench")

	const (
		nodes  = 4
		shards = 2
		algo   = "adaptive"
	)
	walRoot := t.TempDir()
	layoutArgs := []string{
		"-nodes", fmt.Sprint(nodes),
		"-algo", algo, "-shards", fmt.Sprint(shards), "-f", "1", "-k", "1", "-valuesize", "64",
	}
	nodeArgs := func(n int, listen string, recover bool) []string {
		args := []string{
			"-listen", listen, "-node", fmt.Sprint(n),
			"-wal-dir", filepath.Join(walRoot, fmt.Sprintf("node-%d", n)),
			"-wal-sync-every", "1", // every acknowledged round survives SIGKILL
			// A snapshot every 32 records: the victim journals some 110
			// records before the SIGKILL, so it lands on a recycled segment
			// (the third segment on is one), some 18 records past the last
			// snapshot. At 16 that snapshot covered every record, and the
			// replay check below had nothing to count.
			"-wal-snapshot-every", "32",
		}
		if recover {
			args = append(args, "-recover")
		}
		return append(args, layoutArgs...)
	}

	procs := make([]*exec.Cmd, nodes)
	addrs := make([]string, nodes)
	for n := 0; n < nodes; n++ {
		procs[n], addrs[n], _ = startNodeCapture(t, nodeBin, nodeArgs(n, "127.0.0.1:0", false))
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
		}
	}()

	histFile := filepath.Join(bin, "history.txt")
	clientOut := &bytes.Buffer{}
	client := exec.Command(benchBin,
		"-connect", strings.Join(addrs, ","),
		"-algo", algo, "-shards", fmt.Sprint(shards), "-f", "1", "-k", "1", "-valuesize", "64",
		"-clients", "3", "-ops", fmt.Sprint(opsPerClient),
		"-arrival-rate", fmt.Sprint(rate),
		"-keys", "8", "-reads", "0.4", "-seed", "11",
		"-record-out", histFile,
	)
	client.Stdout = clientOut
	client.Stderr = clientOut
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}

	// SIGKILL: no flushes, no goodbyes. Whatever the node acknowledged is on
	// disk or the test fails.
	const victim = 2
	time.Sleep(killAt)
	if err := procs[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill node %d: %v", victim, err)
	}
	_ = procs[victim].Wait()

	time.Sleep(restartAt - killAt)
	replayStart := time.Now()
	var victimOut *nodeOutput
	procs[victim], _, victimOut = startNodeCapture(t, nodeBin, nodeArgs(victim, addrs[victim], true))
	replayTook := time.Since(replayStart)

	err := client.Wait()
	out := clientOut.String()
	if err != nil {
		if data, rerr := os.ReadFile(histFile); rerr == nil {
			t.Logf("recorded history:\n%s", data)
		}
		t.Fatalf("client failed: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "history check: strong regularity ok") {
		t.Fatalf("client output missing history verdict:\n%s", out)
	}

	// The restarted process must have rebuilt state from its journal: its
	// WAL REPLAY line reports the records it re-applied before listening.
	replayLine := victimOut.waitLine(t, "WAL REPLAY ", 5*time.Second)
	m := regexp.MustCompile(`applied=(\d+)`).FindStringSubmatch(replayLine)
	if m == nil {
		t.Fatalf("unparseable replay line %q", replayLine)
	}
	if applied, _ := strconv.Atoi(m[1]); applied == 0 {
		t.Fatalf("restarted node replayed no records (%q); recovery did not come from the WAL", replayLine)
	}
	t.Logf("victim recovery (replay + listen) took %v: %s", replayTook, replayLine)
	t.Logf("client output:\n%s", out)
}

// nodeOutput accumulates a node's stdout lines for scraping.
type nodeOutput struct {
	mu    sync.Mutex
	lines []string
}

func (o *nodeOutput) waitLine(t *testing.T, prefix string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		o.mu.Lock()
		for _, l := range o.lines {
			if strings.HasPrefix(l, prefix) {
				o.mu.Unlock()
				return l
			}
		}
		all := strings.Join(o.lines, "\n")
		o.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no %q line in node output:\n%s", prefix, all)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startNodeCapture launches one spacenode, scrapes its LISTENING line, and
// keeps capturing stdout so tests can assert on later lines (WAL REPLAY).
func startNodeCapture(t *testing.T, bin string, args []string) (*exec.Cmd, string, *nodeOutput) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	out := &nodeOutput{}
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			out.mu.Lock()
			out.lines = append(out.lines, line)
			out.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "LISTENING "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, out
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("spacenode %v did not report LISTENING", args)
		return nil, "", nil
	}
}
