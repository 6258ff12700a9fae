package adaptive_test

import (
	"testing"

	"spacebounds/internal/bound"
	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/value"
	"spacebounds/internal/workload"
)

func newReg(t *testing.T, f, k, dataLen int) *adaptive.Register {
	t.Helper()
	reg, err := adaptive.New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatalf("adaptive.New: %v", err)
	}
	return reg
}

func TestNameAndConfig(t *testing.T) {
	reg := newReg(t, 2, 2, 64)
	if reg.Name() != "adaptive(f=2,k=2)" {
		t.Fatalf("Name = %q", reg.Name())
	}
	cfg := reg.Config()
	if cfg.N() != 6 || cfg.Quorum() != 4 {
		t.Fatalf("config: n=%d q=%d", cfg.N(), cfg.Quorum())
	}
	if _, err := adaptive.New(register.Config{F: 1, K: 0, DataLen: 8}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSequentialWritesThenReads(t *testing.T) {
	reg := newReg(t, 1, 2, 128)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            1,
		WritesPerWriter:    4,
		Readers:            2,
		ReadsPerReader:     3,
		ReadersAfterWrites: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors: %d write, %d read", res.WriteErrors, res.ReadErrors)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatalf("strong regularity: %v", err)
	}
	// Every read after the last write must return the last written value.
	last := workload.WriterValue(reg.Config(), 1, 4)
	for _, rd := range res.History.CompletedReads() {
		if !rd.Value.Equal(last) {
			t.Fatalf("read returned %v, want the last written value", rd.Value)
		}
	}
}

func TestConcurrentWritersRegularityAcrossSchedules(t *testing.T) {
	reg := newReg(t, 2, 2, 96)
	for seed := int64(1); seed <= 4; seed++ {
		res, err := workload.Run(reg, workload.Spec{
			Writers:            4,
			WritesPerWriter:    2,
			Readers:            2,
			ReadsPerReader:     2,
			ReadersAfterWrites: true,
			Policy:             dsys.NewRandomPolicy(seed),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.WriteErrors != 0 || res.ReadErrors != 0 {
			t.Fatalf("seed %d: errors %d/%d", seed, res.WriteErrors, res.ReadErrors)
		}
		if err := history.CheckWeakRegularity(res.History); err != nil {
			t.Fatalf("seed %d weak regularity: %v", seed, err)
		}
		if err := history.CheckStrongRegularity(res.History); err != nil {
			t.Fatalf("seed %d strong regularity: %v", seed, err)
		}
	}
}

func TestReadersConcurrentWithWriters(t *testing.T) {
	reg := newReg(t, 1, 2, 64)
	reg.SetReadRetryBudget(200)
	res, err := workload.Run(reg, workload.Spec{
		Writers:         3,
		WritesPerWriter: 2,
		Readers:         2,
		ReadsPerReader:  2,
		Policy:          dsys.NewRandomPolicy(7),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// FW-termination does not promise completion of reads that race with
	// writes, but any read that did complete must be regular.
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatalf("strong regularity: %v", err)
	}
	if res.CompletedWrites != 6 {
		t.Fatalf("completed writes = %d, want 6 (writes are wait-free)", res.CompletedWrites)
	}
}

func TestStorageBoundTheorem2(t *testing.T) {
	// Theorem 2 / Corollary 3: base-object storage is bounded by
	// (c+1)(2f+k)D/k bits while c < k and by the plateau (2f+k)·2D from
	// c = k on, which caps every run: each object holds at most k pieces in
	// Vp and k pieces in Vf, i.e. at most 2D bits.
	const dataLen = 240 // divisible by all k used below
	for _, tc := range []struct{ f, k, writers int }{
		{1, 1, 1},
		{1, 2, 1},
		{1, 2, 4},
		{2, 2, 6},
		{2, 4, 3},
		{3, 3, 8},
	} {
		reg := newReg(t, tc.f, tc.k, dataLen)
		cfg := reg.Config()
		res, err := workload.Run(reg, workload.Spec{
			Writers:         tc.writers,
			WritesPerWriter: 2,
			Policy:          dsys.NewRandomPolicy(int64(tc.f*100 + tc.k*10 + tc.writers)),
		})
		if err != nil {
			t.Fatalf("f=%d k=%d c=%d: %v", tc.f, tc.k, tc.writers, err)
		}
		replicationBound := bound.Adaptive(cfg, cfg.K)
		if res.MaxBaseObjectBits > replicationBound {
			t.Errorf("f=%d k=%d c=%d: max base storage %d bits exceeds the replication-plateau bound %d",
				tc.f, tc.k, tc.writers, res.MaxBaseObjectBits, replicationBound)
		}
		if tc.writers == 1 {
			// Sequential writes: at most two pieces per object at any time
			// (the about-to-be-superseded value plus the new one), which is
			// the c+1 = 2 case of the (c+1)(2f+k)D/k bound.
			sequentialBound := bound.Adaptive(cfg, 1)
			if res.MaxBaseObjectBits > sequentialBound {
				t.Errorf("f=%d k=%d sequential: max base storage %d bits exceeds (c+1)(2f+k)D/k = %d",
					tc.f, tc.k, res.MaxBaseObjectBits, sequentialBound)
			}
		}
	}
}

func TestQuiescentStorageReduction(t *testing.T) {
	// Theorem 2, final clause: once finitely many writes have all completed,
	// storage shrinks back to (2f+k) * D/k bits — one piece per base object.
	reg := newReg(t, 2, 2, 120)
	cfg := reg.Config()
	res, err := workload.Run(reg, workload.Spec{Writers: 3, WritesPerWriter: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := bound.Quiescent(cfg)
	if res.QuiescentBaseObjectBits != want {
		t.Fatalf("quiescent storage = %d bits, want %d", res.QuiescentBaseObjectBits, want)
	}
	if res.MaxBaseObjectBits < want {
		t.Fatalf("max storage %d below quiescent %d", res.MaxBaseObjectBits, want)
	}
}

func TestToleratesFCrashes(t *testing.T) {
	reg := newReg(t, 2, 2, 80)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            2,
		WritesPerWriter:    2,
		Readers:            1,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
		CrashObjects:       []int{0, 3}, // f = 2 crashes
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors with f crashes: %d write, %d read", res.WriteErrors, res.ReadErrors)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatalf("strong regularity under crashes: %v", err)
	}
}

func TestTooManyCrashesGetsStuck(t *testing.T) {
	reg := newReg(t, 1, 1, 16)
	res, err := workload.Run(reg, workload.Spec{
		Writers:         1,
		WritesPerWriter: 1,
		CrashObjects:    []int{0, 1}, // more than f = 1 crashes
		MaxSteps:        500,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CompletedWrites != 0 {
		t.Fatalf("write completed despite losing a quorum")
	}
}

func TestReplicationSpecialCaseK1(t *testing.T) {
	// With k = 1 the algorithm degenerates to replication; quiescent storage
	// is (2f+1) * D.
	reg := newReg(t, 1, 1, 100)
	cfg := reg.Config()
	res, err := workload.Run(reg, workload.Spec{Writers: 2, WritesPerWriter: 2, Readers: 1, ReadsPerReader: 1, ReadersAfterWrites: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := bound.Quiescent(cfg); res.QuiescentBaseObjectBits != want {
		t.Fatalf("quiescent = %d, want %d", res.QuiescentBaseObjectBits, want)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatal(err)
	}
}

// TestBlackBoxSubstitution reproduces Figure 2: re-running the same schedule
// with a different written value leaves every base object's non-block state
// (piece counts, timestamps, storedTS) identical; only block contents change.
func TestBlackBoxSubstitution(t *testing.T) {
	type shape struct {
		storedTS register.Timestamp
		vp, vf   int
	}
	runOnce := func(v value.Value) ([]shape, value.Value) {
		reg := newReg(t, 1, 2, 64)
		states, err := reg.InitialStates(value.Zero(64))
		if err != nil {
			t.Fatal(err)
		}
		cluster := dsys.NewCluster(states)
		defer cluster.Close()
		th := cluster.Spawn(1, func(h *dsys.ClientHandle) error { return reg.Write(h, v) })
		var got value.Value
		cluster.Start()
		if err := th.Wait(); err != nil {
			t.Fatal(err)
		}
		rd := cluster.Spawn(2, func(h *dsys.ClientHandle) error {
			var err error
			got, err = reg.Read(h)
			return err
		})
		if err := rd.Wait(); err != nil {
			t.Fatal(err)
		}
		cluster.WaitIdle()
		shapes := make([]shape, cluster.N())
		for i := 0; i < cluster.N(); i++ {
			err := cluster.ReadObjectState(i, func(s dsys.State) {
				st := s.(interface {
					StoredTS() register.Timestamp
					VpLen() int
					VfLen() int
				})
				shapes[i] = shape{storedTS: st.StoredTS(), vp: st.VpLen(), vf: st.VfLen()}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return shapes, got
	}

	vA := value.Sequenced(1, 1, 64)
	vB := value.Sequenced(9, 9, 64)
	shapesA, gotA := runOnce(vA)
	shapesB, gotB := runOnce(vB)
	if !gotA.Equal(vA) || !gotB.Equal(vB) {
		t.Fatalf("reads returned wrong values: %v / %v", gotA, gotB)
	}
	for i := range shapesA {
		if shapesA[i] != shapesB[i] {
			t.Fatalf("object %d non-block state differs between substituted runs: %+v vs %+v", i, shapesA[i], shapesB[i])
		}
	}
}

func TestWriteRejectsWrongSize(t *testing.T) {
	reg := newReg(t, 1, 2, 32)
	states, err := reg.InitialStates(value.Zero(32))
	if err != nil {
		t.Fatal(err)
	}
	cluster := dsys.NewCluster(states)
	defer cluster.Close()
	th := cluster.Spawn(1, func(h *dsys.ClientHandle) error {
		return reg.Write(h, value.Zero(16))
	})
	cluster.Start()
	if err := th.Wait(); err == nil {
		t.Fatal("write of wrong-size value accepted")
	}
}

// TestLiveWritersAndReadersOverSharedFull runs concurrent writers and readers
// in one process in live mode. A write's n update RMWs share one `full` slice
// and the objects they reach share its block bytes with later read responses;
// all of that sharing is read-only, which `go test -race` checks here. k = 2
// with four writers drives objects into the Vf fallback that copies `full`.
func TestLiveWritersAndReadersOverSharedFull(t *testing.T) {
	reg := newReg(t, 1, 2, 256)
	res, err := workload.Run(reg, workload.Spec{
		Writers:         4,
		WritesPerWriter: 25,
		Readers:         3,
		ReadsPerReader:  25,
		Live:            true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WriteErrors != 0 || res.CompletedWrites != 100 {
		t.Fatalf("writes: %d completed, %d errors", res.CompletedWrites, res.WriteErrors)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatalf("strong regularity: %v", err)
	}
}
