package workload_test

import (
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/workload"
)

func newReg(t *testing.T) register.Register {
	t.Helper()
	reg, err := adaptive.New(register.Config{F: 1, K: 2, DataLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestSpecValidate(t *testing.T) {
	if err := (workload.Spec{Writers: -1}).Validate(); err == nil {
		t.Fatal("negative writer count accepted")
	}
	if err := (workload.Spec{Writers: 1, Readers: 1}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := workload.Run(newReg(t), workload.Spec{ReadsPerReader: -1}); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}

func TestWriterValueDistinct(t *testing.T) {
	cfg := newReg(t).Config()
	a := workload.WriterValue(cfg, 1, 1)
	b := workload.WriterValue(cfg, 1, 2)
	c := workload.WriterValue(cfg, 2, 1)
	if a.Equal(b) || a.Equal(c) || b.Equal(c) {
		t.Fatal("writer values are not distinct")
	}
	if a.SizeBytes() != cfg.DataLen {
		t.Fatalf("writer value size %d, want %d", a.SizeBytes(), cfg.DataLen)
	}
}

func TestRunRecordsHistoryAndStorage(t *testing.T) {
	res, err := workload.Run(newReg(t), workload.Spec{
		Writers:            2,
		WritesPerWriter:    2,
		Readers:            1,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWrites != 4 || res.CompletedReads != 2 {
		t.Fatalf("completed %d writes / %d reads, want 4 / 2", res.CompletedWrites, res.CompletedReads)
	}
	if res.WriteErrors != 0 || res.ReadErrors != 0 {
		t.Fatalf("unexpected errors: %d / %d", res.WriteErrors, res.ReadErrors)
	}
	if res.MaxTotalBits < res.MaxBaseObjectBits || res.MaxBaseObjectBits == 0 {
		t.Fatalf("implausible storage accounting: total %d, base %d", res.MaxTotalBits, res.MaxBaseObjectBits)
	}
	if res.Steps == 0 {
		t.Fatal("no scheduling steps recorded")
	}
	if res.IdleReason != dsys.IdleQuiesced {
		t.Fatalf("run ended %v, want quiesced", res.IdleReason)
	}
	if got := len(res.History.Writes()); got != 4 {
		t.Fatalf("history has %d writes, want 4", got)
	}
	if err := history.CheckStrongRegularity(res.History); err != nil {
		t.Fatal(err)
	}
}

func TestRunStuckRunIsReleased(t *testing.T) {
	// A workload that cannot make progress (quorum unreachable) must return
	// rather than hang, reporting zero completed operations.
	res, err := workload.Run(newReg(t), workload.Spec{
		Writers:         1,
		WritesPerWriter: 1,
		CrashObjects:    []int{0, 1}, // f = 1, so two crashes break every quorum
		MaxSteps:        200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWrites != 0 {
		t.Fatalf("completed %d writes without a quorum", res.CompletedWrites)
	}
}

func TestRunLiveMode(t *testing.T) {
	res, err := workload.Run(newReg(t), workload.Spec{
		Writers:            3,
		WritesPerWriter:    2,
		Readers:            2,
		ReadsPerReader:     2,
		ReadersAfterWrites: true,
		Live:               true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWrites != 6 || res.CompletedReads != 4 {
		t.Fatalf("live run completed %d/%d ops", res.CompletedWrites, res.CompletedReads)
	}
	if err := history.CheckWeakRegularity(res.History); err != nil {
		t.Fatal(err)
	}
}
