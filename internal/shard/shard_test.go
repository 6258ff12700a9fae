package shard_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

func adaptiveSpecs(n int) []shard.Spec {
	specs := make([]shard.Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, shard.Spec{
			Name:      fmt.Sprintf("s%d", i),
			Algorithm: "adaptive",
			Config:    register.Config{F: 1, K: 2, DataLen: 64},
		})
	}
	return specs
}

func TestSetValidation(t *testing.T) {
	if _, err := shard.New(nil); err == nil {
		t.Fatal("empty spec list accepted")
	}
	if _, err := shard.New([]shard.Spec{{Name: "", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 8}}}); err == nil {
		t.Fatal("empty shard name accepted")
	}
	dup := []shard.Spec{
		{Name: "a", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 8}},
		{Name: "a", Algorithm: "abd", Config: register.Config{F: 1, K: 1, DataLen: 8}},
	}
	if _, err := shard.New(dup); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
	if _, err := shard.New([]shard.Spec{{Name: "a", Algorithm: "nope", Config: register.Config{F: 1, K: 2, DataLen: 8}}}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestHeterogeneousShards multiplexes all four emulations over one cluster
// and round-trips a value through each.
func TestHeterogeneousShards(t *testing.T) {
	set, err := shard.New([]shard.Spec{
		{Name: "adaptive", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 64}},
		{Name: "abd", Algorithm: "abd", Config: register.Config{F: 2, K: 1, DataLen: 32}},
		{Name: "ecreg", Algorithm: "ecreg", Config: register.Config{F: 1, K: 2, DataLen: 128}},
		{Name: "safereg", Algorithm: "safereg", Config: register.Config{F: 1, K: 2, DataLen: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	wantTotal := 0
	for _, sh := range set.Shards() {
		wantTotal += sh.Span
	}
	if got := set.Cluster().N(); got != wantTotal {
		t.Fatalf("cluster has %d objects, shards own %d", got, wantTotal)
	}
	for i, sh := range set.Shards() {
		msg := fmt.Sprintf("value-for-%s", sh.Name)
		if err := set.Write(i+1, sh.Name, value.FromString(msg, sh.Reg.Config().DataLen)); err != nil {
			t.Fatalf("write %s: %v", sh.Name, err)
		}
		got, err := set.Read(100+i, sh.Name)
		if err != nil {
			t.Fatalf("read %s: %v", sh.Name, err)
		}
		if s := strings.TrimRight(string(got.Bytes()), "\x00"); s != msg {
			t.Fatalf("shard %s read %q, want %q", sh.Name, s, msg)
		}
	}
}

func TestForKeyRouting(t *testing.T) {
	set, err := shard.New(adaptiveSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	// Exact shard names route to themselves.
	for _, sh := range set.Shards() {
		if got := set.ForKey(sh.Name); got != sh {
			t.Fatalf("ForKey(%q) routed to %q", sh.Name, got.Name)
		}
	}
	// Hashed keys are deterministic and cover more than one shard.
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("user-%d", i)
		a, b := set.ForKey(key), set.ForKey(key)
		if a != b {
			t.Fatalf("ForKey(%q) not deterministic", key)
		}
		seen[a.Name] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 hashed keys all routed to %d shard(s)", len(seen))
	}
}

// quietStorage samples a set no operation is running on and checks that the
// cluster's total is the sum of the shards' bits.
func quietStorage(t *testing.T, set *shard.Set) shard.Storage {
	t.Helper()
	st := set.Storage()
	sum := 0
	for _, part := range st.Shards {
		sum += part.Bits
	}
	if sum != st.Bits {
		t.Fatalf("per-shard bits sum to %d, the cluster counts %d (%v)", sum, st.Bits, st.Shards)
	}
	return st
}

// TestPerShardStorageSumsToTotal checks that the aggregate storage cost
// equals the sum of per-shard costs — the invariant that keeps the paper's
// min(f, c)·D introspection meaningful after the multiplexing refactor — and
// the attribution rules a move relies on mid-flight: a region built but not
// yet routed is counted under its name, and a retired shard that holds
// nothing is omitted.
func TestPerShardStorageSumsToTotal(t *testing.T) {
	set, err := shard.New(adaptiveSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i, sh := range set.Shards() {
		if err := set.Write(i+1, sh.Name, value.Sequenced(i+1, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := quietStorage(t, set)
	// n = 4 pieces of D/k = 256 bits per shard.
	for _, sh := range set.Shards() {
		if bits := st.Shards[sh.Name].Bits; bits != 4*256 {
			t.Fatalf("shard %s reports %d bits, want %d", sh.Name, bits, 4*256)
		}
	}
	if len(st.Shards) != 4 || st.Durable != 0 || st.Ledger != 0 {
		t.Fatalf("sample = %+v, want four shards and no durable bits", st)
	}

	succ, err := set.AddRegion(shard.Spec{Name: "s0/0", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if bits := quietStorage(t, set).Shards[succ.Name].Bits; bits != 4*256 {
		t.Fatalf("unrouted successor reports %d bits, want its initial %d", bits, 4*256)
	}
	if err := set.RetireShard("s0"); err != nil {
		t.Fatal(err)
	}
	st = quietStorage(t, set)
	if part, ok := st.Shards["s0"]; ok {
		t.Fatalf("retired s0 still reported: %+v", part)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("sample covers %v, want s1..s3 and s0/0", st.Shards)
	}
}

// TestSampleDuringAddRegionAttributesItsObjects takes a sample while a new
// region's base objects are being created. AddRegion creates them and
// registers the region as one step, so the sample must either wait for the
// region or precede its objects: no base-object bits without an owning shard.
func TestSampleDuringAddRegionAttributesItsObjects(t *testing.T) {
	var set *shard.Set
	var mid shard.Storage
	sampled := make(chan struct{})
	onEvent := func(ev dsys.Event) {
		if ev.Kind != dsys.EventExtend {
			return
		}
		go func() {
			mid = set.Storage()
			close(sampled)
		}()
		// The objects exist now. A sampler not held back by the region lock
		// finishes within this window, before the region is registered.
		select {
		case <-sampled:
		case <-time.After(50 * time.Millisecond):
		}
	}
	set, err := shard.New(adaptiveSpecs(2), dsys.WithEventLog(onEvent))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, err := set.AddRegion(shard.Spec{Name: "s0/0", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 64}}); err != nil {
		t.Fatal(err)
	}
	<-sampled
	sum := 0
	for _, part := range mid.Shards {
		sum += part.Bits
	}
	if sum != mid.Bits {
		t.Fatalf("sample during AddRegion: per-shard bits sum to %d, the cluster counts %d (%v)", sum, mid.Bits, mid.Shards)
	}
}

// blockingRMW parks inside Apply until released, holding its base object's
// apply lock the whole time.
type blockingRMW struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingRMW) Apply(dsys.State) any {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return nil
}

func (b *blockingRMW) AppendBlocks(dst []dsys.BlockRef) []dsys.BlockRef { return dst }

// TestNoCrossShardBlocking pins one shard's base object inside a blocked
// Apply and proves that writes to a different shard still complete: clients
// on disjoint shards share no locks on the live path.
func TestNoCrossShardBlocking(t *testing.T) {
	set, err := shard.New(adaptiveSpecs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	shardA, shardB := set.Shards()[0], set.Shards()[1]

	rmw := &blockingRMW{entered: make(chan struct{}), release: make(chan struct{})}
	pinned := make(chan error, 1)
	go func() {
		pinned <- set.Run(99, shardA, func(h *dsys.ClientHandle) error {
			_, err := h.Invoke([]int{0}, func(int) dsys.RMW { return rmw }, 1)
			return err
		})
	}()
	<-rmw.entered // shard A's object 0 now holds its apply lock indefinitely

	done := make(chan error, 1)
	go func() {
		done <- set.Write(1, shardB.Name, value.Sequenced(1, 1, 64))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write to unblocked shard failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write to shard B blocked behind a pinned RMW on shard A")
	}

	close(rmw.release)
	if err := <-pinned; err != nil {
		t.Fatalf("pinned task: %v", err)
	}
}

// TestCrashNodePerShard crashes one node in one shard and checks the other
// shard is unaffected while the crashed shard still tolerates it (f = 1).
func TestCrashNodePerShard(t *testing.T) {
	set, err := shard.New(adaptiveSpecs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if err := set.CrashNode("s0", 0); err != nil {
		t.Fatal(err)
	}
	if err := set.CrashNode("s0", -1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := set.CrashNode("nope", 0); err == nil {
		t.Fatal("unknown shard accepted")
	}
	for i, name := range []string{"s0", "s1"} {
		if err := set.Write(i+1, name, value.Sequenced(i+1, 1, 64)); err != nil {
			t.Fatalf("write %s after crash: %v", name, err)
		}
		if _, err := set.Read(10+i, name); err != nil {
			t.Fatalf("read %s after crash: %v", name, err)
		}
	}
	// Only shard s0's global object 0 is crashed.
	crashed := set.Cluster().CrashedObjects()
	if len(crashed) != 1 || crashed[0] != set.Shards()[0].Base {
		t.Fatalf("crashed objects = %v, want exactly [%d]", crashed, set.Shards()[0].Base)
	}
}
