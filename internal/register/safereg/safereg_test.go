package safereg_test

import (
	"testing"

	"spacebounds/internal/bound"
	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/workload"
)

func newReg(t *testing.T, f, k, dataLen int) register.Register {
	t.Helper()
	reg, err := safereg.New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatalf("safereg.New: %v", err)
	}
	return reg
}

func TestNameAndValidation(t *testing.T) {
	reg := newReg(t, 1, 2, 32)
	if reg.Name() != "safe(f=1,k=2)" {
		t.Fatalf("Name = %q", reg.Name())
	}
	if _, err := safereg.New(register.Config{F: 1, K: 0, DataLen: 4}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSequentialReadsSeeLatestWrite(t *testing.T) {
	reg := newReg(t, 1, 2, 64)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            1,
		WritesPerWriter:    3,
		Readers:            2,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors: %d/%d", res.WriteErrors, res.ReadErrors)
	}
	if err := history.CheckStrongSafety(res.History); err != nil {
		t.Fatalf("strong safety: %v", err)
	}
	last := workload.WriterValue(reg.Config(), 1, 3)
	for _, rd := range res.History.CompletedReads() {
		if !rd.Value.Equal(last) {
			t.Fatalf("write-free read returned %v, want last written value", rd.Value)
		}
	}
}

func TestWaitFreeUnderConcurrency(t *testing.T) {
	// Reads are wait-free even with writers still running; every operation
	// completes under every (fair) schedule, and strong safety holds.
	reg := newReg(t, 2, 3, 96)
	for seed := int64(1); seed <= 4; seed++ {
		res, err := workload.Run(reg, workload.Spec{
			Writers:         4,
			WritesPerWriter: 2,
			Readers:         3,
			ReadsPerReader:  2,
			Policy:          dsys.NewRandomPolicy(seed),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.WriteErrors != 0 || res.ReadErrors != 0 {
			t.Fatalf("seed %d: wait-freedom violated (%d/%d errors)", seed, res.WriteErrors, res.ReadErrors)
		}
		if err := history.CheckStrongSafety(res.History); err != nil {
			t.Fatalf("seed %d strong safety: %v", seed, err)
		}
	}
}

func TestStorageIsExactlyNDk(t *testing.T) {
	// Lemma 17: the storage is always n*D/k bits regardless of concurrency.
	for _, writers := range []int{1, 2, 6} {
		reg := newReg(t, 2, 2, 120)
		cfg := reg.Config()
		res, err := workload.Run(reg, workload.Spec{
			Writers:         writers,
			WritesPerWriter: 2,
			Policy:          dsys.NewRandomPolicy(int64(writers)),
		})
		if err != nil {
			t.Fatalf("c=%d: %v", writers, err)
		}
		want := bound.Quiescent(cfg)
		if res.MaxBaseObjectBits != want {
			t.Errorf("c=%d: max base storage = %d bits, want exactly %d", writers, res.MaxBaseObjectBits, want)
		}
		if res.QuiescentBaseObjectBits != want {
			t.Errorf("c=%d: quiescent storage = %d bits, want exactly %d", writers, res.QuiescentBaseObjectBits, want)
		}
	}
}

func TestToleratesFCrashes(t *testing.T) {
	reg := newReg(t, 2, 2, 48)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            2,
		WritesPerWriter:    2,
		Readers:            1,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
		CrashObjects:       []int{1, 4},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors with f crashes: %d/%d", res.WriteErrors, res.ReadErrors)
	}
	if err := history.CheckStrongSafety(res.History); err != nil {
		t.Fatalf("strong safety under crashes: %v", err)
	}
}
