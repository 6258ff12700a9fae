package experiments

import (
	"fmt"

	"spacebounds/internal/adversary"
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/abd"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/workload"
)

// Default experiment parameters. They are deliberately modest so that the
// whole suite runs in seconds; the shapes of the results do not depend on
// the absolute sizes.
const (
	defaultDataLen = 1024 // 1 KiB values => D = 8192 bits
	smallDataLen   = 256
)

func kib(bits int) string { return fmt.Sprintf("%.2f", float64(bits)/8192) }

// E1AdaptiveStorageVsConcurrency sweeps the concurrency level c and reports
// the adaptive algorithm's peak base-object storage against the Theorem 2
// expression min((c+1)(2f+k)D/k, (2f+k)·2D).
func E1AdaptiveStorageVsConcurrency() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Adaptive register: peak storage vs. write concurrency (Theorem 2)",
		Caption: "D = 8 KiB values; peak measured over a fair schedule of c concurrent writers, 2 writes each.",
		Header:  []string{"f", "k", "n", "c", "peak KiB", "bound KiB", "plateau KiB", "within bound"},
	}
	for _, fk := range []struct{ f, k int }{{1, 1}, {2, 2}, {4, 4}} {
		for _, c := range []int{1, 2, 4, 8, 12, 16} {
			reg, err := adaptive.New(register.Config{F: fk.f, K: fk.k, DataLen: defaultDataLen})
			if err != nil {
				return nil, err
			}
			cfg := reg.Config()
			res, err := workload.Run(reg, workload.Spec{Writers: c, WritesPerWriter: 2})
			if err != nil {
				return nil, err
			}
			d := cfg.DataBits()
			pieceBits := d / cfg.K
			plateau := cfg.N() * 2 * cfg.K * pieceBits // every object holds at most 2D bits
			bound := plateau
			// The (c+1)(2f+k)D/k expression of Theorem 2 applies while the
			// concurrency stays below the code parameter; beyond that the
			// replication plateau is the operative bound.
			if c < cfg.K {
				if concBound := (c + 1) * cfg.N() * pieceBits; concBound < bound {
					bound = concBound
				}
			}
			t.AddRow(fk.f, fk.k, cfg.N(), c, kib(res.MaxBaseObjectBits), kib(bound), kib(plateau), res.MaxBaseObjectBits <= bound)
		}
	}
	return t, nil
}

// E2QuiescentStorage verifies the final clause of Theorem 2: after a finite
// number of writes all complete, storage returns to (2f+k)·D/k bits.
func E2QuiescentStorage() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Adaptive register: storage after writes quiesce (Theorem 2, Lemma 8)",
		Caption: "Expected quiescent storage is (2f+k)·D/k bits, one piece per base object.",
		Header:  []string{"f", "k", "writers", "writes/wr", "peak KiB", "quiescent KiB", "expected KiB", "match"},
	}
	for _, fk := range []struct{ f, k, writers int }{{1, 2, 2}, {2, 2, 4}, {2, 4, 4}, {3, 3, 6}} {
		reg, err := adaptive.New(register.Config{F: fk.f, K: fk.k, DataLen: defaultDataLen})
		if err != nil {
			return nil, err
		}
		cfg := reg.Config()
		res, err := workload.Run(reg, workload.Spec{Writers: fk.writers, WritesPerWriter: 3})
		if err != nil {
			return nil, err
		}
		// One piece of ceil(DataLen/k) bytes per base object.
		want := cfg.N() * 8 * ((cfg.DataLen + cfg.K - 1) / cfg.K)
		t.AddRow(fk.f, fk.k, fk.writers, 3, kib(res.MaxBaseObjectBits), kib(res.QuiescentBaseObjectBits), kib(want),
			res.QuiescentBaseObjectBits == want)
	}
	return t, nil
}

// E3StorageComparison compares the peak storage of ABD replication, the pure
// erasure-coded baseline, and the adaptive algorithm as concurrency grows —
// the trade-off the introduction describes and Corollary 2 formalizes.
func E3StorageComparison() (*Table, error) {
	const f = 2
	t := &Table{
		ID:    "E3",
		Title: "Peak storage (KiB) vs. concurrency: replication vs. pure coding vs. adaptive (f=2, k=f, D=8 KiB)",
		Caption: "Replication is flat at (2f+1)·D; the coded baseline grows as Θ(c·D); " +
			"the adaptive algorithm follows the coded line while c < k and then plateaus at its replication-style cap.",
		Header: []string{"c", "abd (repl)", "ecreg (coded)", "adaptive", "adaptive/abd", "ecreg/adaptive"},
	}
	for _, c := range []int{1, 2, 4, 8, 12, 16} {
		abdReg, err := abd.New(register.Config{F: f, K: 1, DataLen: defaultDataLen})
		if err != nil {
			return nil, err
		}
		ecReg, err := ecreg.New(register.Config{F: f, K: f, DataLen: defaultDataLen})
		if err != nil {
			return nil, err
		}
		adReg, err := adaptive.New(register.Config{F: f, K: f, DataLen: defaultDataLen})
		if err != nil {
			return nil, err
		}
		spec := workload.Spec{Writers: c, WritesPerWriter: 2}
		abdRes, err := workload.Run(abdReg, spec)
		if err != nil {
			return nil, err
		}
		ecRes, err := workload.Run(ecReg, spec)
		if err != nil {
			return nil, err
		}
		adRes, err := workload.Run(adReg, spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(c, kib(abdRes.MaxBaseObjectBits), kib(ecRes.MaxBaseObjectBits), kib(adRes.MaxBaseObjectBits),
			fmt.Sprintf("%.2f", float64(adRes.MaxBaseObjectBits)/float64(abdRes.MaxBaseObjectBits)),
			fmt.Sprintf("%.2f", float64(ecRes.MaxBaseObjectBits)/float64(adRes.MaxBaseObjectBits)))
	}
	return t, nil
}

// E4AdversaryLowerBound runs the Theorem 1 adversary against the coded
// baseline, the adaptive algorithm, and the safe register, and compares the
// storage it extracts with the analytic target min(f+1, c)·D/2.
func E4AdversaryLowerBound() (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Adversary Ad (ℓ = D/2): pinned storage vs. the Ω(min(f,c)·D) target (f=k=8, D=2 KiB)",
		Caption: "Regular registers (ecreg, adaptive) are pinned at or above the target with no write completing; " +
			"the safe register's storage stays at n·D/k, demonstrating the bound does not apply to safe semantics.",
		Header: []string{"algorithm", "c", "pinned KiB", "target KiB", "meets bound", "|F|", "|C+|", "writes done"},
	}
	const f, k = 8, 8
	mk := func(name string) (register.Register, error) {
		cfg := register.Config{F: f, K: k, DataLen: 2 * smallDataLen}
		switch name {
		case "ecreg":
			return ecreg.New(cfg)
		case "adaptive":
			return adaptive.New(cfg)
		case "safe":
			return safereg.New(cfg)
		}
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	for _, name := range []string{"ecreg", "adaptive", "safe"} {
		for _, c := range []int{1, 4, 8, 12, 16} {
			reg, err := mk(name)
			if err != nil {
				return nil, err
			}
			res, err := adversary.Run(reg, c, nil)
			if err != nil {
				return nil, err
			}
			t.AddRow(reg.Name(), c, kib(res.PinnedBaseObjectBits), kib(res.LowerBoundBits), res.MeetsBound(),
				res.FullObjects, res.HeavyWrites, res.CompletedWrites)
		}
	}
	return t, nil
}

// E5SafeRegisterStorage verifies Lemma 17: the safe register's storage is
// exactly n·D/k bits independent of concurrency.
func E5SafeRegisterStorage() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Safe register: storage vs. concurrency (Lemma 17)",
		Caption: "Storage is n·D/k bits at every point in every run, independent of c.",
		Header:  []string{"f", "k", "c", "peak KiB", "expected KiB", "match"},
	}
	for _, fk := range []struct{ f, k int }{{1, 2}, {2, 2}, {2, 4}} {
		for _, c := range []int{1, 4, 8} {
			reg, err := safereg.New(register.Config{F: fk.f, K: fk.k, DataLen: defaultDataLen})
			if err != nil {
				return nil, err
			}
			cfg := reg.Config()
			res, err := workload.Run(reg, workload.Spec{Writers: c, WritesPerWriter: 2})
			if err != nil {
				return nil, err
			}
			want := cfg.N() * cfg.DataBits() / cfg.K
			t.AddRow(fk.f, fk.k, c, kib(res.MaxBaseObjectBits), kib(want), res.MaxBaseObjectBits == want)
		}
	}
	return t, nil
}

// E6AdversaryTrace replays a Figure 3-style schedule: four concurrent writers
// against the coded baseline under Ad, reporting every scheduling event.
func E6AdversaryTrace() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Adversary schedule trace (Figure 3 scenario: 4 writers, ℓ = D/2)",
		Caption: "Each row is one scheduling decision of Ad against the coded baseline (f=k=4).",
		Header:  []string{"step", "event", "object", "client", "operation"},
	}
	reg, err := ecreg.New(register.Config{F: 4, K: 4, DataLen: smallDataLen})
	if err != nil {
		return nil, err
	}
	var events []dsys.Event
	res, err := adversary.Run(reg, 4, func(ev dsys.Event) { events = append(events, ev) })
	if err != nil {
		return nil, err
	}
	limit := len(events)
	if limit > 40 {
		limit = 40
	}
	for _, ev := range events[:limit] {
		obj, op := fmt.Sprint(ev.Object), fmt.Sprint(ev.Op)
		if ev.Kind != dsys.EventApply {
			obj, op = "-", "-"
		}
		t.AddRow(ev.Step, string(ev.Kind), obj, ev.Client, op)
	}
	t.Caption += fmt.Sprintf(" Run pinned after %d steps with %s of storage (target %s KiB).",
		res.Steps, kib(res.PinnedBaseObjectBits)+" KiB", kib(res.LowerBoundBits))
	return t, nil
}

// E7KAblation sweeps the code parameter k for fixed f, showing the trade-off
// the paper discusses after Theorem 2: larger k lowers the quiescent storage
// (2f+k)·D/k but raises the concurrency threshold at which the algorithm
// falls back to replication.
func E7KAblation() (*Table, error) {
	const f = 2
	t := &Table{
		ID:      "E7",
		Title:   "Adaptive register: ablation over k (f = 2, D = 8 KiB, c = 6)",
		Caption: "Quiescent storage follows (2f+k)·D/k; the peak under concurrency is capped by the replication plateau (2f+k)·2D.",
		Header:  []string{"k", "n", "quiescent KiB", "(2f+k)D/k KiB", "peak KiB", "plateau KiB"},
	}
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		reg, err := adaptive.New(register.Config{F: f, K: k, DataLen: defaultDataLen})
		if err != nil {
			return nil, err
		}
		cfg := reg.Config()
		res, err := workload.Run(reg, workload.Spec{Writers: 6, WritesPerWriter: 2})
		if err != nil {
			return nil, err
		}
		pieceBits := 8 * ((cfg.DataLen + k - 1) / k)
		quiescentWant := cfg.N() * pieceBits
		plateau := cfg.N() * 2 * cfg.K * pieceBits
		t.AddRow(k, cfg.N(), kib(res.QuiescentBaseObjectBits), kib(quiescentWant), kib(res.MaxBaseObjectBits), kib(plateau))
	}
	return t, nil
}

// E8OperationLatency compares the scheduling cost of the algorithms: RMW
// rounds per write (3 for adaptive, 2 for ABD and the safe register) and
// whether reads terminate under write concurrency (FW-termination vs.
// wait-freedom).
func E8OperationLatency() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Liveness and cost per operation (4 writers x 2 writes, 2 readers x 2 reads, reads concurrent with writes)",
		Caption: "Steps are scheduling decisions of the controlled runtime; 'reads done' shows wait-free readers always finish while FW-terminating readers may retry until writes stop.",
		Header:  []string{"algorithm", "write rounds", "read rounds", "completed writes", "completed reads", "steps", "steps/op"},
	}
	type entry struct {
		name        string
		reg         register.Register
		writeRounds string
		readRounds  string
	}
	mk := func() ([]entry, error) {
		cfg := register.Config{F: 2, K: 2, DataLen: smallDataLen}
		ad, err := adaptive.New(cfg)
		if err != nil {
			return nil, err
		}
		ec, err := ecreg.New(cfg)
		if err != nil {
			return nil, err
		}
		sf, err := safereg.New(cfg)
		if err != nil {
			return nil, err
		}
		ab, err := abd.New(register.Config{F: 2, K: 1, DataLen: smallDataLen})
		if err != nil {
			return nil, err
		}
		return []entry{
			{"adaptive", ad, "3", ">=1 (FW)"},
			{"ecreg", ec, "3", ">=1 (FW)"},
			{"abd", ab, "2", "1"},
			{"safe", sf, "2", "1"},
		}, nil
	}
	entries, err := mk()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		res, err := workload.Run(e.reg, workload.Spec{
			Writers:         4,
			WritesPerWriter: 2,
			Readers:         2,
			ReadsPerReader:  2,
			Policy:          dsys.NewRandomPolicy(11),
		})
		if err != nil {
			return nil, err
		}
		ops := res.CompletedWrites + res.CompletedReads
		perOp := "-"
		if ops > 0 {
			perOp = fmt.Sprintf("%.1f", float64(res.Steps)/float64(ops))
		}
		t.AddRow(e.reg.Name(), e.writeRounds, e.readRounds, res.CompletedWrites, res.CompletedReads, res.Steps, perOp)
	}
	return t, nil
}
