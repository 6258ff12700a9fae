package node

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"spacebounds/internal/metrics"
	"spacebounds/internal/reconfig"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

const testValueSize = 32

// testSpecs is a two-shard table with one provider that needs the k-rule.
func testSpecs() []shard.Spec {
	return []shard.Spec{
		{Name: "coded", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: testValueSize}},
		{Name: "replicated", Algorithm: "abd", Config: register.Config{F: 1, K: 2, DataLen: testValueSize}},
	}
}

func testValue(s string) value.Value {
	buf := make([]byte, testValueSize)
	copy(buf, s)
	return value.FromBytes(buf)
}

// settle waits for the goroutine count to come back down to baseline; the
// runtime needs a moment to retire goroutines whose functions have returned.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLifecycle drives the whole assembly — a durable, instrumented, batched
// node with an injector and a controller; a server in front; a client over
// TCP — and requires Close to take every goroutine with it and to be
// idempotent.
func TestLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Options{Sample: 1, Metrics: reg})
	cfg := Config{
		Shards:  testSpecs(),
		Batch:   shard.BatchConfig{MaxSize: 4},
		WAL:     wal.Config{Dir: t.TempDir()},
		Metrics: reg,
		Tracer:  tr,
		// Both loops run but stay quiet: what is under test is that Close
		// stops them.
		Faults:      FaultConfig{Interval: time.Hour},
		AutoReshard: AutoReshardConfig{Interval: time.Hour},
	}
	cfg.AutoReshard.HotOps = 1 << 20
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := n.Serve("127.0.0.1:0", 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Serve("127.0.0.1:0", 1, 0, false); err == nil {
		t.Fatal("second Serve on one node accepted")
	}
	cli, err := Connect([]string{addr.String()}, Config{Shards: testSpecs(), Batch: cfg.Batch, Metrics: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"coded", "replicated"} {
		want := testValue("via " + key)
		if err := cli.Set().Write(1, key, want); err != nil {
			t.Fatalf("write %s over TCP: %v", key, err)
		}
		got, err := cli.Set().Read(2, key)
		if err != nil || !got.Equal(want) {
			t.Fatalf("read %s over TCP = %v, %v; want %v", key, got, err, want)
		}
		// The same table on both sides: the in-process read sees the write.
		if got, err := n.Set().Read(3, key); err != nil || !got.Equal(want) {
			t.Fatalf("read %s in process = %v, %v; want %v", key, got, err, want)
		}
	}
	// Rule (a): abd was asked for k = 2 and got k = 1 on both sides.
	for _, side := range []*Node{n, cli} {
		if k := side.Set().Shard("replicated").Reg.Config().K; k != 1 {
			t.Errorf("abd built with k = %d, want 1", k)
		}
		if k := side.Set().Shard("coded").Reg.Config().K; k != 2 {
			t.Errorf("adaptive built with k = %d, want the 2 it was given", k)
		}
	}
	// Rule (d): one registry saw the set, the coordinator, the journal, the
	// server, the client and the controller.
	var page bytes.Buffer
	reg.WritePrometheus(&page)
	for _, family := range []string{
		"spacebounds_dsys_quorum_round_seconds", "spacebounds_shard_batch_size_ops",
		"spacebounds_reconfig_moves_total", "spacebounds_wal_appends_total",
		"spacebounds_transport_server_requests_total", "spacebounds_transport_rpc_seconds",
		"spacebounds_autoshard_ticks_total",
	} {
		if !strings.Contains(page.String(), family) {
			t.Errorf("registry lacks %s", family)
		}
	}
	// And one tracer saw every stage, after one split: the client's op, batch
	// wait, round and rpc; the server's apply and the journal's append, which
	// take the tracer from the cluster they serve; the coordinator's steps.
	if _, err := n.Coordinator().ApplyLive(reconfig.Move{Kind: reconfig.MoveSplit, Shard: "coded"}); err != nil {
		t.Fatalf("split: %v", err)
	}
	stages := make(map[string]bool)
	for _, s := range tr.Snapshot() {
		stages[s.Stage] = true
	}
	for _, stage := range []string{
		trace.StageOp, trace.StageBatchWait, trace.StageRound, trace.StageRPC,
		trace.StageApply, trace.StageWALAppend, trace.StageReconfig,
	} {
		if !stages[stage] {
			t.Errorf("tracer lacks %s spans", stage)
		}
	}

	for _, side := range []*Node{cli, n} {
		if err := side.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := side.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	if _, err := n.Serve("127.0.0.1:0", 1, 0, false); err == nil {
		t.Fatal("Serve on a closed node accepted")
	}
	settle(t, baseline)
}

// TestFailedAssemblyReleasesWhatItAcquired walks every way Open, Serve and
// Connect can fail and requires each to leave nothing behind: no goroutine,
// and a write-ahead log directory or a port that can be taken again.
func TestFailedAssemblyReleasesWhatItAcquired(t *testing.T) {
	baseline := runtime.NumGoroutine()

	if _, err := Open(Config{Shards: []shard.Spec{{Name: "x", Algorithm: "no-such-provider"}}}); err == nil {
		t.Error("Open accepted an unknown provider")
	}
	if _, err := Connect([]string{"127.0.0.1:1"}, Config{Shards: []shard.Spec{{Name: "x", Algorithm: "no-such-provider"}}}); err == nil {
		t.Error("Connect accepted an unknown provider")
	}
	if _, err := Connect(nil, Config{Shards: testSpecs()}); err == nil {
		t.Error("Connect accepted an empty address list")
	}
	if _, err := Open(Config{Shards: testSpecs(), AutoReshard: AutoReshardConfig{Interval: time.Second}}); err == nil {
		t.Error("Open accepted an autoshard policy with no signal")
	}

	// A WAL directory that cannot be created: its parent is a file.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Shards: testSpecs(), WAL: wal.Config{Dir: filepath.Join(file, "wal")}}); err == nil {
		t.Error("Open accepted an unwritable WAL directory")
	}

	// A corrupt segment that is not the last: write one, damage it, and put
	// an empty later segment after it.
	dir := t.TempDir()
	n, err := Open(Config{Shards: testSpecs(), WAL: wal.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Set().Write(1, "coded", testValue("durable")); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want one", segs, err)
	}
	intact, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), intact...)
	damaged[len(damaged)/2] ^= 0xff
	later := filepath.Join(dir, "wal-00000000ffffffff.log")
	if err := os.WriteFile(segs[0], damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(later, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Shards: testSpecs(), WAL: wal.Config{Dir: dir}}); err == nil {
		t.Error("Open accepted a corrupt non-tail segment")
	}
	// Repaired, the same directory opens and replays.
	if err := os.WriteFile(segs[0], intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(later); err != nil {
		t.Fatal(err)
	}
	n, err = Open(Config{Shards: testSpecs(), WAL: wal.Config{Dir: dir}})
	if err != nil {
		t.Fatalf("reopening the repaired WAL directory: %v", err)
	}
	if got, err := n.Set().Read(1, "coded"); err != nil || !got.Equal(testValue("durable")) {
		t.Errorf("read after reopen = %v, %v; want the journaled value", got, err)
	}

	// A port in use: Serve fails, and succeeds on the same port once it is
	// free.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Serve(ln.Addr().String(), 1, 0, false); err == nil {
		t.Error("Serve bound a port in use")
	}
	ln.Close()
	if _, err := n.Serve(ln.Addr().String(), 1, 0, false); err != nil {
		t.Errorf("Serve on the freed port: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, baseline)
}

// TestReplayedNodeAnswersFirstRead pins rule (c): a durable node restarted in
// recovery mode has replayed its log before it listens, so the very first
// round it sees — a read — is answered with the replayed value instead of
// being refused as a recovering object's would.
func TestReplayedNodeAnswersFirstRead(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: testSpecs(), WAL: wal.Config{Dir: dir}}
	want := testValue("before the crash")

	serve := func(recovery bool) (*Node, *Node) {
		t.Helper()
		n, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		addr, err := n.Serve("127.0.0.1:0", 1, 0, recovery)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := Connect([]string{addr.String()}, Config{Shards: testSpecs()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cli.Close() })
		return n, cli
	}

	n, cli := serve(false)
	for _, key := range []string{"coded", "replicated"} {
		if err := cli.Set().Write(1, key, want); err != nil {
			t.Fatal(err)
		}
	}
	_ = cli.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n, cli = serve(true)
	if n.Replay().Applied == 0 {
		t.Fatalf("restart replayed nothing: %v", n.Replay())
	}
	for _, key := range []string{"coded", "replicated"} {
		got, err := cli.Set().Read(2, key)
		if err != nil {
			t.Fatalf("first read of %s after recovery: %v", key, err)
		}
		if !got.Equal(want) {
			t.Fatalf("first read of %s after recovery = %v, want the replayed %v", key, got, want)
		}
	}

	// Without a log to replay, the same restart refuses that read.
	cfg.WAL.Dir = ""
	_, cli = serve(true)
	if _, err := cli.Set().Read(2, "coded"); err == nil {
		t.Fatal("a recovering node with nothing replayed answered a read")
	}
}
