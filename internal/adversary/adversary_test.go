package adversary_test

import (
	"testing"

	"spacebounds/internal/adversary"
	"spacebounds/internal/dsys"
	"spacebounds/internal/oracle"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/storagecost"
)

func TestPolicyRulePriorities(t *testing.T) {
	// D = 1000 bits, ℓ = 500. Write w1 is light (200 bits outside its
	// client), w2 is heavy (600 bits). Object 0 is frozen (600 bits), object
	// 1 is not (100 bits).
	w1 := oracle.WriteID{Client: 1, Seq: 1}
	w2 := oracle.WriteID{Client: 2, Seq: 1}
	snap := storagecost.Collect([]storagecost.Reporter{reporter{
		{Location: storagecost.Location{Kind: storagecost.BaseObject, ID: 0}, Source: oracle.SourceTag{Write: w2, Index: 1}, Bits: 600},
		{Location: storagecost.Location{Kind: storagecost.BaseObject, ID: 1}, Source: oracle.SourceTag{Write: w1, Index: 1}, Bits: 100},
		{Location: storagecost.Location{Kind: storagecost.BaseObject, ID: 2}, Source: oracle.SourceTag{Write: w1, Index: 2}, Bits: 100},
	}}, nil)
	view := &dsys.View{
		DataBits:          1000,
		Storage:           snap,
		OutstandingWrites: []oracle.WriteID{w1, w2},
		Pending: []dsys.PendingView{
			{Index: 0, Seq: 10, Object: 0, Client: 1, Op: dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}}, // frozen object
			{Index: 1, Seq: 11, Object: 1, Client: 2, Op: dsys.OpID{Client: 2, Seq: 1, Kind: dsys.OpWrite}}, // heavy write
			{Index: 2, Seq: 12, Object: 1, Client: 1, Op: dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}}, // eligible
			{Index: 3, Seq: 13, Object: 2, Client: 1, Op: dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}}, // eligible but younger
		},
		Ready: []dsys.ReadyClient{{Ticket: 5, Client: 3}},
	}
	pol := adversary.NewPolicy(500)
	d := pol.Decide(view)
	if d.Kind != dsys.KindApply || d.PendingIndex != 2 {
		t.Fatalf("rule 1 chose %+v, want the longest-pending eligible RMW (index 2)", d)
	}

	// Without eligible pending RMWs, rule 2 runs the lowest-ticket ready client.
	view.Pending = view.Pending[:2]
	d = pol.Decide(view)
	if d.Kind != dsys.KindRun || d.Ticket != 5 {
		t.Fatalf("rule 2 chose %+v, want to run ticket 5", d)
	}

	// With nothing to do, Ad stalls.
	view.Ready = nil
	d = pol.Decide(view)
	if d.Kind != dsys.KindStall {
		t.Fatalf("expected stall, got %+v", d)
	}
}

type reporter []storagecost.BlockInfo

func (r reporter) StorageBlocks() []storagecost.BlockInfo { return r }

func TestAdversaryPinsEcregAndExtractsBound(t *testing.T) {
	// Against the pure erasure-coded baseline the adversary pins the run (no
	// write returns) having driven the storage to at least
	// min(f+1, c) * D/2 bits. f = k = 8 keeps the target above the trivial
	// initial storage n·D/k, so the adversary really has to extract bits.
	reg, err := ecreg.New(register.Config{F: 8, K: 8, DataLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, 4, 8, 12} {
		applies := 0
		res, err := adversary.Run(reg, c, func(ev dsys.Event) {
			if ev.Kind == dsys.EventApply {
				applies++
			}
		})
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if applies == 0 {
			t.Errorf("c=%d: the event log saw no apply", c)
		}
		if res.Reason != dsys.IdleStuck {
			t.Errorf("c=%d: run ended %v, want stuck (pinned)", c, res.Reason)
		}
		if res.CompletedWrites != 0 {
			t.Errorf("c=%d: %d writes completed under Ad", c, res.CompletedWrites)
		}
		if !res.MeetsBound() {
			t.Errorf("c=%d: pinned storage %d bits below bound %d", c, res.PinnedBaseObjectBits, res.LowerBoundBits)
		}
	}
}

func TestAdversaryPinsAdaptive(t *testing.T) {
	// The adaptive algorithm is also subject to the bound (it is a black-box
	// coding algorithm): Ad pins it too, with at least min(f+1, c) * D/2
	// bits in the storage at the pinned point.
	reg, err := adaptive.New(register.Config{F: 8, K: 8, DataLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, 4, 9} {
		res, err := adversary.Run(reg, c, nil)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if res.CompletedWrites != 0 {
			t.Errorf("c=%d: %d writes completed under Ad", c, res.CompletedWrites)
		}
		if !res.MeetsBound() {
			t.Errorf("c=%d: pinned storage %d bits below bound %d", c, res.PinnedBaseObjectBits, res.LowerBoundBits)
		}
	}
}

func TestAdversaryCannotBlowUpSafeRegister(t *testing.T) {
	// Appendix E: the safe register stores exactly n·D/k bits no matter what
	// the adversary does (updates overwrite in place), so Ad can starve its
	// writes but cannot extract min(f+1, c)·D/2 bits from it. This is the
	// separation showing the lower bound does not hold for safe semantics.
	reg, err := safereg.New(register.Config{F: 8, K: 8, DataLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	cfg := reg.Config()
	res, err := adversary.Run(reg, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.N() * cfg.DataBits() / cfg.K
	if res.PinnedBaseObjectBits != want {
		t.Fatalf("safe register storage under Ad = %d bits, want exactly %d", res.PinnedBaseObjectBits, want)
	}
	if res.MeetsBound() {
		t.Fatalf("safe register storage %d unexpectedly reached the regular-register bound %d",
			res.PinnedBaseObjectBits, res.LowerBoundBits)
	}
}

func TestRunValidation(t *testing.T) {
	reg, err := ecreg.New(register.Config{F: 1, K: 1, DataLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adversary.Run(reg, 0, nil); err == nil {
		t.Fatal("concurrency 0 accepted")
	}
}
