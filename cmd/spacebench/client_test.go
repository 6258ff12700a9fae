package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacebounds/internal/history"
	"spacebounds/internal/node"
	"spacebounds/internal/transport"
)

// startCluster brings up `nodes` in-process nodes sharing one layout, through
// the same assembly spacenode uses, and returns them with their addresses.
func startCluster(t *testing.T, layout transport.Layout, nodes int) ([]*node.Node, []string) {
	t.Helper()
	specs, err := layout.Specs()
	if err != nil {
		t.Fatal(err)
	}
	cluster := make([]*node.Node, nodes)
	addrs := make([]string, nodes)
	for i := range cluster {
		n, err := node.Open(node.Config{Shards: specs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		addr, err := n.Serve("127.0.0.1:0", nodes, i, false)
		if err != nil {
			t.Fatal(err)
		}
		cluster[i], addrs[i] = n, addr.String()
	}
	return cluster, addrs
}

func TestClientModeAgainstLiveCluster(t *testing.T) {
	layout := transport.Layout{Algorithm: "adaptive", Shards: 2, F: 1, K: 1, ValueSize: 64}
	_, addrs := startCluster(t, layout, 4)

	c := mustParse(t, "-connect", strings.Join(addrs, ","),
		"-algo", "adaptive", "-shards", "2", "-f", "1", "-k", "1", "-valuesize", "64",
		"-clients", "2", "-ops", "25", "-keys", "8", "-reads", "0.4", "-seed", "3")
	out := &bytes.Buffer{}
	if err := c.execute(out); err != nil {
		t.Fatalf("client run: %v\noutput:\n%s", err, out)
	}
	got := out.String()
	for _, want := range []string{"client: 4 nodes, 2 shards", "history check: strong regularity ok (2 shards)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// The safe register claims strong safety, not regularity; the client must
// check the condition the provider claims. It is also the paper's coded
// register (Appendix E), so node and client started with the same k = 3 must
// build the same table: the client reports the k it was asked for, and at
// quiescence the nodes hold n·D/k bits per shard.
func TestClientModeSafeRegister(t *testing.T) {
	const f, k, valueSize = 1, 3, 48
	layout := transport.Layout{Algorithm: "safereg", Shards: 2, F: f, K: k, ValueSize: valueSize}
	cluster, addrs := startCluster(t, layout, 5)

	c := mustParse(t, "-connect", strings.Join(addrs, ","),
		"-algo", "safereg", "-shards", "2", "-f", "1", "-k", "3", "-valuesize", "48",
		"-clients", "1", "-ops", "24", "-keys", "8", "-seed", "5")
	out := &bytes.Buffer{}
	if err := c.execute(out); err != nil {
		t.Fatalf("safereg client run: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{"2 shards (safereg, f=1, k=3)", "history check: strong safety ok (2 shards)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// Sum, per shard, the bits of every object on the node that hosts it.
	span := layout.Span()
	bits := make([]int, layout.Shards)
	for i, n := range cluster {
		hosted := layout.HostedBy(len(cluster), i)
		for obj, b := range n.Set().Cluster().SampleStorage().PerObjectBits {
			if hosted(obj) {
				bits[obj/span] += b
			}
		}
	}
	for shard, got := range bits {
		if want := span * valueSize * 8 / k; got != want {
			t.Errorf("shard-%d holds %d bits at quiescence, want n·D/k = %d", shard, got, want)
		}
	}
}

// The in-process throughput mode and its -split/-resize-at flags are gone:
// throughput is the benchmark's question, and moves under load are the
// workload package's. A layout with no shards is refused before any dial,
// and a run against a dead cluster fails.
func TestClientModeRejectsSplitAndBadCluster(t *testing.T) {
	for _, gone := range [][]string{{"-throughput"}, {"-split", "shard-0"}, {"-resize-at", "10"}} {
		if _, err := parseArgs(append([]string{"-connect", "127.0.0.1:1"}, gone...), io.Discard); err == nil {
			t.Fatalf("%s accepted", gone[0])
		}
	}
	err := mustParse(t, "-connect", "127.0.0.1:1", "-shards", "0").execute(&bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "at least one shard") {
		t.Fatalf("-shards 0: %v, want the layout refused", err)
	}
	bad := mustParse(t, "-connect", "127.0.0.1:1", "-clients", "1", "-ops", "1", "-keys", "1")
	if err := bad.execute(&bytes.Buffer{}); err == nil {
		t.Fatal("run against a dead cluster succeeded")
	}
}

func TestFormatHistories(t *testing.T) {
	hs := map[string]*history.History{
		"b": {Ops: []*history.Op{{ID: 1, Client: 2, Invoked: 1, Returned: 2}}},
		"a": {Ops: []*history.Op{{ID: 3, Client: 4, Invoked: 5, Returned: 6}}},
	}
	got := formatHistories(hs)
	ai, bi := strings.Index(got, "shard a:"), strings.Index(got, "shard b:")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("shards missing or unsorted:\n%s", got)
	}
	if !strings.Contains(got, "c4#3") {
		t.Fatalf("op line missing:\n%s", got)
	}

	// A failing check writes this dump to -record-out; exercise the path with
	// an unwritable destination so the warning branch is covered too.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "h.txt"), []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
}
