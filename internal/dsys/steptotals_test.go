package dsys_test

import (
	"fmt"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
	"spacebounds/internal/workload"
)

// totalsPolicy is FairPolicy that, before every decision, compares what the
// coordinator's walk recorded — the view's per-object bits and the sums it
// keeps the peaks with — with a full snapshot: the one walk serves all of
// them, and this is where they must agree.
type totalsPolicy struct {
	t     *testing.T
	c     *dsys.Cluster
	name  string
	steps int
	bad   int
}

func (p *totalsPolicy) Decide(v *dsys.View) dsys.Decision {
	p.steps++
	snap := v.Storage()
	if len(v.ObjectBits) != p.c.N() && p.bad < 3 {
		p.bad++
		p.t.Errorf("%s, step %d: the view has the bits of %d objects, the cluster %d", p.name, v.Step, len(v.ObjectBits), p.c.N())
	}
	for id, bits := range v.ObjectBits {
		if bits != snap.PerObjectBits[id] && p.bad < 3 {
			p.bad++
			p.t.Errorf("%s, step %d: the view has object %d at %d bits, the snapshot %d", p.name, v.Step, id, bits, snap.PerObjectBits[id])
		}
	}
	total, base := dsys.StepTotals(p.c)
	if (total != snap.TotalBits || base != snap.BaseObjectBits) && p.bad < 3 {
		p.bad++
		p.t.Errorf("%s, step %d: walk sums %d total / %d base bits, snapshot %d / %d",
			p.name, v.Step, total, base, snap.TotalBits, snap.BaseObjectBits)
	}
	return dsys.FairPolicy{}.Decide(v)
}

// TestStepTotalsFollowTheObjectList: objects a reconfiguration adds count
// their initial states, and retired ones nothing, from the first view after
// the change, with no apply between. The client grows a second adaptive
// region, writes it, retires the first region and writes again.
func TestStepTotalsFollowTheObjectList(t *testing.T) {
	cfg := register.Config{F: 1, K: 2, DataLen: 64}
	var regs [2]*adaptive.Register
	var states [2][]dsys.State
	for i := range regs {
		var err error
		if regs[i], err = adaptive.New(cfg); err != nil {
			t.Fatal(err)
		}
		if states[i], err = regs[i].InitialStates(value.Zero(cfg.DataLen)); err != nil {
			t.Fatal(err)
		}
	}
	p := &totalsPolicy{t: t, name: "extend and retire"}
	p.c = dsys.NewCluster(states[0], dsys.WithPolicy(p))
	defer p.c.Close()
	task := p.c.Spawn(1, func(h *dsys.ClientHandle) error {
		if err := regs[0].Write(h, workload.WriterValue(cfg, 1, 1)); err != nil {
			return err
		}
		base, err := p.c.ExtendObjects(states[1])
		if err != nil {
			return err
		}
		if err := h.Yield(); err != nil { // a view with the grown list and no apply since
			return err
		}
		sub, err := h.Sub(base, len(states[1]))
		if err != nil {
			return err
		}
		if err := regs[1].Write(sub, workload.WriterValue(cfg, 1, 2)); err != nil {
			return err
		}
		if err := p.c.RetireObjects(0, len(states[0])); err != nil {
			return err
		}
		if err := h.Yield(); err != nil {
			return err
		}
		return regs[1].Write(sub, workload.WriterValue(cfg, 1, 3))
	})
	p.c.Start()
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if reason := p.c.WaitIdle(); reason != dsys.IdleQuiesced || p.steps == 0 {
		t.Fatalf("run ended %s after %d steps", reason, p.steps)
	}
}

// TestStepTotalsMatchTheSnapshot runs the workloads of E1–E3 — c writers of
// two writes each (three in E2) on the adaptive register at E1's and E2's
// (f, k), and on abd and ecreg at E3's f = 2 — and checks every controlled
// step.
func TestStepTotalsMatchTheSnapshot(t *testing.T) {
	const dataLen = 1024 // the experiments' D = 8 KiB
	type run struct {
		algo          string
		f, k, writers int
		writes        int
	}
	var runs []run
	for _, fk := range []struct{ f, k int }{{1, 1}, {2, 2}, {4, 4}} { // E1
		for _, c := range []int{1, 2, 4, 8, 12, 16} {
			runs = append(runs, run{"adaptive", fk.f, fk.k, c, 2})
		}
	}
	for _, r := range []struct{ f, k, writers int }{{1, 2, 2}, {2, 2, 4}, {2, 4, 4}, {3, 3, 6}} { // E2
		runs = append(runs, run{"adaptive", r.f, r.k, r.writers, 3})
	}
	for _, c := range []int{1, 2, 4, 8, 12, 16} { // E3 (its adaptive column is E1's f = k = 2 row)
		runs = append(runs, run{"abd", 2, 1, c, 2}, run{"ecreg", 2, 2, c, 2})
	}
	for _, r := range runs {
		cfg := register.Config{F: r.f, K: r.k, DataLen: dataLen}
		var reg register.Register
		var err error
		switch r.algo {
		case "adaptive":
			reg, err = adaptive.New(cfg)
		case "abd":
			reg, err = safereg.NewABD(cfg)
		case "ecreg":
			reg, err = ecreg.New(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		states, err := reg.InitialStates(value.Zero(dataLen))
		if err != nil {
			t.Fatal(err)
		}
		p := &totalsPolicy{t: t, name: fmt.Sprintf("%s f=%d k=%d c=%d", r.algo, r.f, r.k, r.writers)}
		p.c = dsys.NewCluster(states, dsys.WithPolicy(p))
		var tasks []*dsys.TaskHandle
		for w := 1; w <= r.writers; w++ {
			tasks = append(tasks, p.c.Spawn(w, func(h *dsys.ClientHandle) error {
				for seq := 1; seq <= r.writes; seq++ {
					if err := reg.Write(h, workload.WriterValue(reg.Config(), w, seq)); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		p.c.Start()
		for _, task := range tasks {
			if err := task.Wait(); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		if reason := p.c.WaitIdle(); reason != dsys.IdleQuiesced || p.steps == 0 {
			t.Fatalf("%s: run ended %s after %d steps", p.name, reason, p.steps)
		}
		p.c.Close()
	}
}
