package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"spacebounds/internal/trace"
	"spacebounds/internal/transport"
)

func TestParseArgs(t *testing.T) {
	c, err := parseArgs([]string{
		"-listen", "127.0.0.1:9001", "-node", "2", "-nodes", "4",
		"-algo", "abd", "-shards", "3", "-f", "2", "-k", "1", "-valuesize", "128", "-recover",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := nodeConfig{
		listen: "127.0.0.1:9001", node: 2, nodes: 4,
		algo: "abd", shards: 3, f: 2, k: 1, valueSize: 128, recovery: true,
		traceSample: 1, walSyncEv: 1,
	}
	if *c != want {
		t.Fatalf("parseArgs = %+v, want %+v", *c, want)
	}

	for _, bad := range [][]string{
		{"-node", "4", "-nodes", "4"},          // index out of range
		{"-node", "-1"},                        // negative index
		{"-nodes", "0"},                        // empty deployment
		{"-node", "0", "-nodes", "1", "extra"}, // positional leftovers
		{"-no-such-flag"},
	} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Fatalf("parseArgs(%v) accepted", bad)
		}
	}
}

func TestCountHosted(t *testing.T) {
	l := transport.Layout{Algorithm: "adaptive", Shards: 2, F: 1, K: 1, ValueSize: 64}
	total := 0
	for node := 0; node < 4; node++ {
		total += countHosted(l, 4, node)
	}
	if total != l.TotalObjects() {
		t.Fatalf("nodes host %d objects in total, want %d", total, l.TotalObjects())
	}
	// 2 shards x 3 objects over 4 nodes round-robin: no node hosts more than 2.
	for node := 0; node < 4; node++ {
		if n := countHosted(l, 4, node); n > 2 {
			t.Fatalf("node %d hosts %d objects, want <= 2", node, n)
		}
	}
}

// run must come up, report its address and hosting summary, and exit cleanly
// when signalled — the lifecycle the e2e test drives through the binary.
func TestRunListensAndStops(t *testing.T) {
	c, err := parseArgs([]string{"-listen", "127.0.0.1:0", "-node", "0", "-nodes", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		defer pw.Close()
		done <- run(c, pw, stop)
	}()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("no output before exit: %v", <-done)
	}
	addr, ok := strings.CutPrefix(sc.Text(), "LISTENING ")
	if !ok {
		t.Fatalf("first line = %q, want LISTENING prefix", sc.Text())
	}
	if !sc.Scan() || !strings.Contains(sc.Text(), "hosting") {
		t.Fatalf("missing hosting summary, got %q", sc.Text())
	}

	// The reported address accepts envelope rounds.
	cl, err := transport.Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop <- os.Interrupt
	io.Copy(io.Discard, pr)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunServesTraceEndpoint brings a node up with metrics, tracing, and a
// journal all enabled — the fully instrumented configuration — and checks the
// observability surface in-process: the METRICS line names a live endpoint
// whose /debug/trace serves this node's (empty, node-named) dump.
func TestRunServesTraceEndpoint(t *testing.T) {
	c, err := parseArgs([]string{
		"-listen", "127.0.0.1:0", "-node", "0", "-nodes", "2",
		"-metrics-addr", "127.0.0.1:0", "-trace-slow", "5ms",
		"-wal-dir", t.TempDir(), "-recover",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		defer pw.Close()
		done <- run(c, pw, stop)
	}()

	var maddr string
	sc := bufio.NewScanner(pr)
	for maddr == "" {
		if !sc.Scan() {
			t.Fatalf("no METRICS line before exit: %v", <-done)
		}
		maddr, _ = strings.CutPrefix(sc.Text(), "METRICS ")
	}
	go io.Copy(io.Discard, pr) // keep run's remaining output draining

	resp, err := http.Get("http://" + maddr + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.ParseDump(body)
	if err != nil {
		t.Fatalf("ParseDump(%q): %v", body, err)
	}
	if d.Proc != "node-0" || d.Node != 0 || d.SlowSeconds != 0.005 {
		t.Fatalf("dump header = %q/%d/%v, want node-0/0/0.005", d.Proc, d.Node, d.SlowSeconds)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadLayout(t *testing.T) {
	c, err := parseArgs([]string{"-algo", "no-such-provider"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal)
	if err := run(c, &bytes.Buffer{}, stop); err == nil {
		t.Fatal("run accepted an unknown provider")
	}
	c2, err := parseArgs([]string{"-listen", "no-such-host-zzz:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(c2, &bytes.Buffer{}, stop); err == nil {
		t.Fatal("run accepted an unresolvable listen address")
	}
}
