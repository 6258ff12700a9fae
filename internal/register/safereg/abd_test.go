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

func newABD(t *testing.T, f, dataLen int) register.Register {
	t.Helper()
	reg, err := safereg.NewABD(register.Config{F: f, K: 1, DataLen: dataLen})
	if err != nil {
		t.Fatalf("safereg.NewABD: %v", err)
	}
	return reg
}

func TestABDNameAndValidation(t *testing.T) {
	reg := newABD(t, 2, 16)
	if reg.Name() != "abd(f=2)" {
		t.Fatalf("Name = %q", reg.Name())
	}
	if reg.Config().N() != 5 {
		t.Fatalf("n = %d, want 5", reg.Config().N())
	}
	if _, err := safereg.NewABD(register.Config{F: 1, K: 3, DataLen: 4}); err == nil {
		t.Fatal("abd accepted k != 1")
	}
	// K = 0 defaults to 1.
	if reg2, err := safereg.NewABD(register.Config{F: 1, DataLen: 4}); err != nil || reg2.Config().K != 1 {
		t.Fatalf("abd with default k: %v", err)
	}
}

func TestRegularityAcrossSchedules(t *testing.T) {
	reg := newABD(t, 1, 64)
	for seed := int64(1); seed <= 4; seed++ {
		res, err := workload.Run(reg, workload.Spec{
			Writers:         3,
			WritesPerWriter: 2,
			Readers:         2,
			ReadsPerReader:  3,
			Policy:          dsys.NewRandomPolicy(seed),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.WriteErrors != 0 || res.ReadErrors != 0 {
			t.Fatalf("seed %d: errors %d/%d (ABD ops are wait-free)", seed, res.WriteErrors, res.ReadErrors)
		}
		if err := history.CheckStrongRegularity(res.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStorageIsConstantReplication(t *testing.T) {
	// Replication stores (2f+1)*D bits regardless of the concurrency level.
	for _, writers := range []int{1, 4, 8} {
		reg := newABD(t, 2, 100)
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
			t.Errorf("c=%d: storage = %d bits, want exactly %d", writers, res.MaxBaseObjectBits, want)
		}
	}
}

func TestABDToleratesFCrashes(t *testing.T) {
	reg := newABD(t, 2, 32)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            2,
		WritesPerWriter:    3,
		Readers:            2,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
		CrashObjects:       []int{0, 2},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors with f crashes: %d/%d", res.WriteErrors, res.ReadErrors)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatal(err)
	}
}

func TestReadsSeeLatestCompletedWrite(t *testing.T) {
	reg := newABD(t, 1, 48)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            1,
		WritesPerWriter:    5,
		Readers:            1,
		ReadsPerReader:     3,
		ReadersAfterWrites: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := workload.WriterValue(reg.Config(), 1, 5)
	for _, rd := range res.History.CompletedReads() {
		if !rd.Value.Equal(last) {
			t.Fatalf("read returned %v, want last written value", rd.Value)
		}
	}
}
