package ecreg_test

import (
	"testing"

	"spacebounds/internal/bound"
	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/workload"
)

func newReg(t *testing.T, f, k, dataLen int) *ecreg.Register {
	t.Helper()
	reg, err := ecreg.New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatalf("ecreg.New: %v", err)
	}
	return reg
}

func TestNameAndValidation(t *testing.T) {
	reg := newReg(t, 1, 2, 32)
	if reg.Name() != "ecreg(f=1,k=2)" {
		t.Fatalf("Name = %q", reg.Name())
	}
	if _, err := ecreg.New(register.Config{F: -1, K: 1, DataLen: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRegularity(t *testing.T) {
	reg := newReg(t, 1, 2, 64)
	for seed := int64(1); seed <= 3; seed++ {
		res, err := workload.Run(reg, workload.Spec{
			Writers:            3,
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

func TestSequentialStorageIsIdeal(t *testing.T) {
	// With sequential writes the coded register is storage-ideal: at quiesce
	// it stores n*D/k bits, like the safe register.
	reg := newReg(t, 2, 2, 120)
	cfg := reg.Config()
	res, err := workload.Run(reg, workload.Spec{Writers: 1, WritesPerWriter: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := bound.Quiescent(cfg)
	if res.QuiescentBaseObjectBits != want {
		t.Fatalf("quiescent storage = %d, want %d", res.QuiescentBaseObjectBits, want)
	}
}

func TestStorageGrowsWithConcurrency(t *testing.T) {
	// The defining weakness (Section 1, Corollary 2): peak storage grows
	// linearly with the number of concurrent writers, because pieces of
	// incomplete writes cannot be reclaimed.
	cfgOf := func() *ecreg.Register { return newReg(t, 2, 2, 240) }
	peak := func(writers int) int {
		reg := cfgOf()
		// The default fair (FIFO) policy interleaves the writers so that all
		// store rounds are applied before any commit round, which is exactly
		// the worst case: every object transiently holds one piece per
		// concurrent writer plus the initial value's piece.
		res, err := workload.Run(reg, workload.Spec{
			Writers:         writers,
			WritesPerWriter: 1,
		})
		if err != nil {
			t.Fatalf("c=%d: %v", writers, err)
		}
		return res.MaxBaseObjectBits
	}
	cfg := cfgOf().Config()
	pieceBits := bound.Piece(cfg)
	p1, p4, p8 := peak(1), peak(4), peak(8)
	if !(p1 < p4 && p4 < p8) {
		t.Fatalf("peak storage not increasing with concurrency: c=1:%d c=4:%d c=8:%d", p1, p4, p8)
	}
	// Under the FIFO schedule the peak is exactly (c+1) pieces on each of the
	// n objects: Θ(c·D), the growth the paper's introduction describes.
	for c, p := range map[int]int{1: p1, 4: p4, 8: p8} {
		want := (c + 1) * cfg.N() * pieceBits
		if p != want {
			t.Errorf("c=%d: peak = %d bits, want (c+1)·n·D/k = %d", c, p, want)
		}
	}
}

func TestToleratesFCrashes(t *testing.T) {
	reg := newReg(t, 1, 2, 48)
	res, err := workload.Run(reg, workload.Spec{
		Writers:            2,
		WritesPerWriter:    2,
		Readers:            1,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
		CrashObjects:       []int{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors with f crashes: %d/%d", res.WriteErrors, res.ReadErrors)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatal(err)
	}
}
