package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"

	_ "spacebounds/internal/register/adaptive"
)

// goid is the calling goroutine's ID, read off its stack header. The lead
// hand-off is a statement about which goroutine runs a round, and the runtime
// offers no other way to ask.
func goid() uint64 {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("no goroutine ID in %q", buf[:]))
	}
	return id
}

// physicalRound is one round the batcher ran against the register: who ran
// it and the value it carried (a write) or answered with (a read).
type physicalRound struct {
	goid uint64
	v    value.Value
}

// stubReg stands in for a shard's register so that a test sees exactly the
// rounds the batcher runs and decides how long each takes: a round is logged,
// announced on entered if anybody listens, and held until gate is closed. With
// neither channel set a round costs nothing, which leaves the batcher's own
// work to the allocation pins and the benchmarks.
type stubReg struct {
	register.Register // Name, Config, InitialStates of the shard's real register
	entered, gate     chan struct{}

	mu     sync.Mutex
	rounds []physicalRound
}

func (r *stubReg) round(v value.Value) {
	if r.gate == nil {
		return
	}
	r.mu.Lock()
	r.rounds = append(r.rounds, physicalRound{goid: goid(), v: v})
	r.mu.Unlock()
	select {
	case r.entered <- struct{}{}:
	default:
	}
	<-r.gate
}

func (r *stubReg) Write(_ *dsys.ClientHandle, v value.Value) error {
	r.round(v)
	return nil
}

// Read answers a held round with a value named after the goroutine that runs
// it, so a test can tell which round answered a reader.
func (r *stubReg) Read(*dsys.ClientHandle) (value.Value, error) {
	if r.gate == nil {
		return value.Value{}, nil
	}
	v := value.Sequenced(int(goid()), 1, 64)
	r.round(v)
	return v, nil
}

// stubbedBatcher builds a one-shard batched set whose register is reg and
// returns the shard's batcher.
func stubbedBatcher(tb testing.TB, cfg BatchConfig, reg *stubReg) (*Set, *Batcher) {
	tb.Helper()
	set, err := New([]Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 64}}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(set.Close)
	sh := set.Shard("s")
	reg.Register = sh.Reg
	sh.Reg = reg
	set.EnableBatching(cfg)
	return set, set.Batcher("s")
}

// waiting is how many requests the lane holds that no round has taken.
func (l *lane) waiting() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// await polls cond, failing the test if it does not come true.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestUncontendedOpRunsOnItsCaller: with the lane idle the caller leads its
// own round, so an operation starts no goroutine — the count stays flat over
// ten thousand of them — and what it allocates is pinned.
func TestUncontendedOpRunsOnItsCaller(t *testing.T) {
	set, _ := stubbedBatcher(t, BatchConfig{MaxSize: 16}, &stubReg{})
	sh := set.Shard("s")
	v := value.Sequenced(1, 1, 64)
	write := func() {
		if err := set.WriteValue(1, sh, v); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := set.ReadValue(1, sh); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5000; i++ {
		write()
		read()
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%d goroutines after operation %d, %d before the first", n, 2*i+2, baseline)
		}
	}
	// Nothing: the lane's round function is built once, the shard layer hands
	// it to the cluster as it is, and the client handle comes from a pool. Its
	// parent allocated 3 for a write and 4 for a read — two closures and the
	// handle, and the value a read's closure filled in.
	if n := testing.AllocsPerRun(1000, write); n > 0 {
		t.Errorf("an uncontended write allocates %.0f times, want none", n)
	}
	if n := testing.AllocsPerRun(1000, read); n > 0 {
		t.Errorf("an uncontended read allocates %.0f times, want none", n)
	}
	if st := set.BatchStats(); st.Writes != st.WriteRounds || st.Reads != st.ReadRounds || st.Writes < 6000 {
		t.Errorf("stats %+v: every uncontended operation is a round of its own", st)
	}
}

// parkBehindHeldRound holds one round of a lane — reads, or writes of the
// caller's index — at the register, parks n more callers behind it — one at a
// time, so their arrival order is the order of their indices — lets
// everything go, and returns the rounds the register saw after the held one
// together with each parked caller's goroutine ID and, for reads, its answer.
func parkBehindHeldRound(t *testing.T, maxSize, n int, read bool) (rounds []physicalRound, callers []uint64, got []value.Value) {
	t.Helper()
	reg := &stubReg{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	_, b := stubbedBatcher(t, BatchConfig{MaxSize: maxSize}, reg)
	l := &b.write
	if read {
		l = &b.read
	}

	var wg sync.WaitGroup
	call := func(i int, id *uint64, v *value.Value) {
		defer wg.Done()
		*id = goid()
		var err error
		if read {
			*v, err = b.Read()
		} else {
			err = b.Write(value.Sequenced(i, 1, 64))
		}
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	wg.Add(1)
	go call(-1, new(uint64), new(value.Value))
	<-reg.entered // the holder leads, and its round is at the gate
	callers, got = make([]uint64, n), make([]value.Value, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go call(i, &callers[i], &got[i])
		await(t, fmt.Sprintf("caller %d to park", i), func() bool { return l.waiting() == i+1 })
	}
	close(reg.gate)
	wg.Wait()

	if l.members != n+1 || l.rounds != len(reg.rounds) {
		t.Errorf("lane counts %d members in %d rounds after %d operations in %d rounds", l.members, l.rounds, n+1, len(reg.rounds))
	}
	if l.led || l.waiting() != 0 {
		t.Errorf("lane left led=%v with %d waiting", l.led, l.waiting())
	}
	return reg.rounds[1:], callers, got
}

// TestParkedWritersLeadInTurn: writers parked behind a held round are all
// answered, by rounds that take them in arrival order, MaxSize at a time;
// each round runs on the goroutine of its oldest member, nobody leads twice,
// and there are no more rounds than full batches need.
func TestParkedWritersLeadInTurn(t *testing.T) {
	const maxSize, n = 4, 10
	rounds, writers, _ := parkBehindHeldRound(t, maxSize, n, false)
	// One round per full batch, so ⌈n/MaxSize⌉+1 with the held one.
	if want := (n + maxSize - 1) / maxSize; len(rounds) != want {
		t.Fatalf("%d rounds after the held one, want %d", len(rounds), want)
	}
	led := make(map[uint64]bool)
	for k, r := range rounds {
		oldest, latest := k*maxSize, min((k+1)*maxSize, n)-1
		if r.goid != writers[oldest] {
			t.Errorf("round %d ran on goroutine %d, want writer %d's (%d)", k, r.goid, oldest, writers[oldest])
		}
		if want := value.Sequenced(latest, 1, 64); !r.v.Equal(want) {
			t.Errorf("round %d wrote %v, want writer %d's value: the latest of its batch", k, r.v, latest)
		}
		if led[r.goid] {
			t.Errorf("goroutine %d led a second round", r.goid)
		}
		led[r.goid] = true
	}
}

// TestParkedReadersShareRounds: readers parked behind a held read round are
// all answered by ⌈n/MaxSize⌉ rounds that take them in arrival order, and
// every member of a round sees that round's value.
func TestParkedReadersShareRounds(t *testing.T) {
	const maxSize, n = 4, 10
	rounds, _, got := parkBehindHeldRound(t, maxSize, n, true)
	if want := (n + maxSize - 1) / maxSize; len(rounds) != want {
		t.Fatalf("%d rounds after the held one, want %d", len(rounds), want)
	}
	for i, v := range got {
		if k := i / maxSize; !v.Equal(rounds[k].v) {
			t.Errorf("reader %d was answered %v, want round %d's %v", i, v, k, rounds[k].v)
		}
	}
}

// TestSharedReadRoundGivesEachMemberItsOwnValue: the members of a shared
// read round are answered the round's value in buffers of their own — the
// leader the one its round decoded, every other member a copy — so a member
// that writes to its value changes no other member's.
func TestSharedReadRoundGivesEachMemberItsOwnValue(t *testing.T) {
	const members = 4
	rounds, _, got := parkBehindHeldRound(t, members, members, true)
	if len(rounds) != 1 {
		t.Fatalf("%d rounds after the held one, want 1 shared by all %d readers", len(rounds), members)
	}
	want := value.FromBytes(rounds[0].v.View())
	for i := range got {
		for j := range i {
			if &got[i].View()[0] == &got[j].View()[0] {
				t.Fatalf("readers %d and %d share one buffer", j, i)
			}
		}
	}
	for i := range got {
		if !got[i].Equal(want) {
			t.Fatalf("reader %d holds %v after another reader wrote to its own, want the round's %v", i, got[i], want)
		}
		clear(got[i].View())
	}
}

// TestLeadPassesToOldestRequestStillWaiting: with MaxSize+3 writers parked,
// the first round after the held one takes MaxSize of them and hands the lead
// to the owner of request MaxSize — the oldest still waiting — not to any
// member it has just answered.
func TestLeadPassesToOldestRequestStillWaiting(t *testing.T) {
	const maxSize = 4
	rounds, writers, _ := parkBehindHeldRound(t, maxSize, maxSize+3, false)
	if len(rounds) != 2 {
		t.Fatalf("%d rounds after the held one, want 2", len(rounds))
	}
	if rounds[0].goid != writers[0] || rounds[1].goid != writers[maxSize] {
		t.Errorf("rounds ran on goroutines %d and %d, want those of writers 0 and %d (%d and %d)",
			rounds[0].goid, rounds[1].goid, maxSize, writers[0], writers[maxSize])
	}
}

// TestCloseLeavesNoGoroutine: a batched set that has served concurrent
// operations is gone after Close, goroutines and all. The batcher owns none —
// every round runs on a caller.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	set, err := New([]Spec{{Name: "s", Algorithm: "adaptive", Config: register.Config{F: 1, K: 2, DataLen: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	set.EnableBatching(BatchConfig{MaxSize: 4})
	var wg sync.WaitGroup
	for c := 1; c <= 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= 20; i++ {
				if err := set.Write(c, "s", value.Sequenced(c, i, 64)); err != nil {
					t.Errorf("write: %v", err)
				}
				if _, err := set.Read(c, "s"); err != nil {
					t.Errorf("read: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	set.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkBatcherSubmit is the ladder's group-commit row: what the batcher
// itself costs an operation, measured against a register whose rounds cost
// nothing. uncontended is one caller on an idle lane, which leads every round
// it asks for; contended-8 is eight callers on one lane, where a caller waits
// behind a round in flight and is answered by it or handed the lead.
func BenchmarkBatcherSubmit(b *testing.B) {
	v := value.Sequenced(1, 1, 64)
	b.Run("uncontended", func(b *testing.B) {
		_, bt := stubbedBatcher(b, BatchConfig{MaxSize: 16}, &stubReg{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bt.Write(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contended-8", func(b *testing.B) {
		_, bt := stubbedBatcher(b, BatchConfig{MaxSize: 16}, &stubReg{})
		const callers = 8
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(ops int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					if err := bt.Write(v); err != nil {
						b.Error(err)
						return
					}
				}
			}(b.N / callers)
		}
		wg.Wait()
	})
}
