package adaptive

import (
	"fmt"
	"sync"
	"testing"

	"spacebounds/internal/bound"
	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// newLiveCluster returns a live cluster over a fresh adaptive register's
// initial states; the cluster closes when t ends.
func newLiveCluster(t *testing.T, f, k, dataLen int) (*Register, *dsys.Cluster) {
	t.Helper()
	reg, err := New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	c := dsys.NewCluster(states, dsys.WithLiveMode())
	t.Cleanup(c.Close)
	return reg, c
}

// TestLiveRoundAllocations pins what each of the register's rounds allocates
// on the live engine: nothing. Its RMW array is the handle's round memory, its
// answers ride in its RMWs and land in the handle's slots, and a quiescent
// object answers a read into its RMW's one-header window.
func TestLiveRoundAllocations(t *testing.T) {
	reg, c := newLiveCluster(t, 2, 2, 64)
	cfg := reg.Config()
	err := c.RunScoped(1, 0, cfg.N(), func(h *dsys.ClientHandle) error {
		op := h.BeginOp(dsys.OpWrite)
		writeSet, err := register.WriteChunks(h, cfg, op.WriteID(), value.Sequenced(1, 1, 64))
		if err != nil {
			return err
		}
		ts := register.Timestamp{Num: 1, Client: 1}
		for i := range writeSet {
			writeSet[i].TS = ts
		}
		needsPiece := make([]bool, cfg.N())
		var onStack [16]register.Chunk
		rounds := []struct {
			name  string
			round func() error
		}{
			{"query", func() error { _, _, err := readTimestamps(h, cfg); return err }},
			{"update", func() error { return updateRound(h, cfg, ts, register.ZeroTS, writeSet, false, needsPiece) }},
			{"gc", func() error { return collectGarbage(h, cfg, ts, writeSet, needsPiece) }},
			{"read", func() error { _, _, err := readValue(h, cfg, false, onStack[:0]); return err }},
			{"lean read", func() error { _, _, err := readValue(h, cfg, true, onStack[:0]); return err }},
		}
		for _, r := range rounds {
			if err := r.round(); err != nil { // the first update and GC store the write
				return err
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := r.round(); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Errorf("a live %s round allocates %.1f times, want 0", r.name, allocs)
			}
		}
		h.EndOp()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// freshRMWs is a journal that checks, before each RMW takes effect, that it
// carries nothing but what its own round put in it: every piece it carries is
// its own write's, and a read's answer is still empty. Memory a handle lends
// one operation and then the next would otherwise bring the last one's
// pieces and answers along. The cluster asks Refuses again after an RMW is
// recorded, when its answer is filled: those calls are not checked.
type freshRMWs struct {
	mu       sync.Mutex
	recorded map[dsys.RMW]bool
	stale    []string
}

func (j *freshRMWs) RecordApply(_ int, rmw dsys.RMW) {
	j.mu.Lock()
	j.recorded[rmw] = true
	j.mu.Unlock()
}

func (j *freshRMWs) RecordApplyTraced(object int, rmw dsys.RMW, _ trace.Context) {
	j.RecordApply(object, rmw)
}

func (*freshRMWs) DurableBlocks() []storagecost.BlockInfo { return nil }

func (j *freshRMWs) Refuses(rmw dsys.RMW) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.recorded[rmw] {
		delete(j.recorded, rmw)
		return nil
	}
	if why := staleField(rmw); why != "" {
		j.stale = append(j.stale, fmt.Sprintf("%T: %s", rmw, why))
	}
	return nil
}

// staleField names what rmw carries that its round did not put in it, or
// returns "".
func staleField(rmw dsys.RMW) string {
	update := func(u *updateRMW) string {
		switch {
		case u.piece.TS != u.ts:
			return fmt.Sprintf("a piece of %v in an update at %v", u.piece.TS, u.ts)
		case u.tookFull || u.borrowed:
			return "an earlier Apply's flags"
		}
		for _, c := range u.full {
			if c.TS != u.ts {
				return fmt.Sprintf("a replica piece of %v in an update at %v", c.TS, u.ts)
			}
		}
		return ""
	}
	switch r := rmw.(type) {
	case *readTSRMW:
		if r.resp != (readTSResp{}) {
			return "an earlier answer"
		}
	case *readValueRMW:
		if r.resp.StoredTS != register.ZeroTS || len(r.resp.Chunks) != 0 {
			return "an earlier answer"
		}
	case *updateRMW:
		return update(r)
	case *seedUpdateRMW:
		return update(&r.updateRMW)
	case *gcRMW:
		if r.hasPiece() && r.piece.TS != r.ts || r.borrowed {
			return fmt.Sprintf("a piece of %v in a GC at %v", r.piece.TS, r.ts)
		}
	}
	return ""
}

// TestConcurrentLiveOperationsKeepTheirOwnMemory runs writers and readers
// concurrently on the live engine, every operation on a pooled handle
// (RunScoped), so an operation runs on memory another client's operation was
// lent before it. No RMW may carry anything of an earlier operation
// (freshRMWs), the history must be strongly regular, and once the writers
// are done every object holds the last write's piece alone. With four
// writers at k = 2 updates fall back to Vf and follow-up rounds run. The
// race detector checks that no two operations share lent memory at once.
func TestConcurrentLiveOperationsKeepTheirOwnMemory(t *testing.T) {
	const f, k, dataLen = 1, 2, 64
	const writers, readers, ops = 4, 3, 40
	reg, c := newLiveCluster(t, f, k, dataLen)
	cfg := reg.Config()
	jour := &freshRMWs{recorded: map[dsys.RMW]bool{}}
	c.SetJournal(jour)
	rec := history.NewRecorder()
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 1; seq <= ops; seq++ {
				v := value.Sequenced(w, seq, dataLen)
				op := rec.BeginWrite(w, v)
				if err := c.RunScoped(w, 0, cfg.N(), func(h *dsys.ClientHandle) error { return reg.Write(h, v) }); err != nil {
					errs <- err
					return
				}
				rec.EndWrite(op)
			}
		}()
	}
	for r := 1; r <= readers; r++ {
		client := 100 + r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				op := rec.BeginRead(client)
				var got value.Value
				err := c.RunScoped(client, 0, cfg.N(), func(h *dsys.ClientHandle) (err error) {
					got, err = reg.Read(h)
					return err
				})
				if err != nil {
					errs <- err
					return
				}
				rec.EndRead(op, got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, why := range jour.stale {
		t.Errorf("an RMW carried what an earlier operation left in lent memory: %s", why)
	}
	if err := history.CheckStrongRegularity(rec.History(value.Zero(dataLen))); err != nil {
		t.Fatalf("strong regularity: %v", err)
	}
	if got, want := c.SampleStorage().BaseObjectBits, bound.Quiescent(cfg); got != want {
		t.Fatalf("the quiescent objects hold %d bits, want the %d of one piece each", got, want)
	}
}
