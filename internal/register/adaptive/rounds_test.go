package adaptive

import (
	"reflect"
	"sync"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/storagecost"
	"spacebounds/internal/trace"
	"spacebounds/internal/value"
)

// delivery is one RMW as an object received it: a copy of its value, and the
// object, which the journal learns only of an RMW it records (-1 for one whose
// answer declared the state unchanged).
type delivery struct {
	rmw    any
	object int
}

// applyLog is a journal that notes every RMW the cluster lets take effect, in
// the order it does. The cluster asks Refuses before each Apply and again after
// each RecordApply, and an object decodes each RMW over the last of its kind,
// so the log keeps copies of the values, not the RMWs: as Apply found it, and
// for an RMW it records, as Apply left it.
type applyLog struct {
	mu        sync.Mutex
	recorded  bool // the next Refuses follows a RecordApply
	delivered []delivery
}

func (l *applyLog) Refuses(rmw dsys.RMW) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.recorded {
		l.recorded = false
	} else {
		l.delivered = append(l.delivered, delivery{rmw: reflect.ValueOf(rmw).Elem().Interface(), object: -1})
	}
	return nil
}

func (l *applyLog) RecordApply(object int, rmw dsys.RMW) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recorded = true
	l.delivered[len(l.delivered)-1] = delivery{rmw: reflect.ValueOf(rmw).Elem().Interface(), object: object}
}

func (l *applyLog) RecordApplyTraced(object int, rmw dsys.RMW, _ trace.Context) {
	l.RecordApply(object, rmw)
}
func (l *applyLog) DurableBlocks() []storagecost.BlockInfo { return nil }

// deliveries returns what took effect so far.
func (l *applyLog) deliveries() []delivery {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]delivery(nil), l.delivered...)
}

// TestStragglerAnswersOnlyItsOwnRound: an RMW that takes effect after its
// round has returned answers nothing, so it writes into no memory of its
// client's. A pending RMW is the bytes its trigger encoded, and an answer
// crosses back only into a round that is still open. At f = 2, k = 2 objects
// 0, 1 and 5 start with a full Vp, and object 5 is late (crashAfterNeedFull):
// its RMWs take effect only once nothing else can move. The write's first
// update round is short of a quorum of settled answers, a follow-up takes the
// replica to the objects that asked for it or did not answer, and the GC
// completes the write — all without object 5, whose query and first update
// take effect only afterwards. The object still computes its query's answer,
// a Vp holding write ⟨1, 9⟩. But the memory the write's rounds built their RMWs
// in, which its handle lends the next operation, stays as the write left it,
// zeroed, through to the end of the run.
func TestStragglerAnswersOnlyItsOwnRound(t *testing.T) {
	const f, k, dataLen, late = 2, 2, 96, 5
	reg, err := New(register.Config{F: f, K: k, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	n := reg.Config().N()
	states, err := reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []int{0, 1, late} {
		// An earlier write that got no further than these three objects.
		u := testUpdate(1, 9, register.ZeroTS)
		u.piece = testChunk(1, 9, obj+1)
		if resp := u.Apply(states[obj]); resp != respStored|respToVp {
			t.Fatalf("filling Vp of object %d: %v", obj, resp)
		}
	}
	policy := &crashAfterNeedFull{late: map[int]bool{late: true}, applied: map[int]int{}, crashed: map[int]bool{}}
	cluster := dsys.NewCluster(states, dsys.WithPolicy(policy))
	defer cluster.Close()
	log := &applyLog{}
	cluster.SetJournal(log)

	// What had taken effect when the write returned, and the memory its
	// rounds built their RMWs in, borrowed again (zeroed) once it returned.
	var returned int
	var queries []readTSRMW
	var updates, followUps []seedUpdateRMW
	var gcs []gcRMW
	write := cluster.Spawn(1, func(h *dsys.ClientHandle) error {
		lent := &dsys.RoundMemory[readTSRMW](h, readTSKey, n)[0]
		if err := reg.Write(h, value.Sequenced(1, 1, dataLen)); err != nil {
			return err
		}
		// The coordinator applies nothing while this task holds the run token.
		returned = len(log.deliveries())
		queries = dsys.RoundMemory[readTSRMW](h, readTSKey, n)
		updates = dsys.RoundMemory[seedUpdateRMW](h, updateKey, n)
		followUps = dsys.RoundMemory[seedUpdateRMW](h, followUpKey, n)
		gcs = dsys.RoundMemory[gcRMW](h, gcKey, n)
		if &queries[0] != lent {
			t.Error("the write's query round did not build its RMWs in memory its handle lends")
		}
		return nil
	})
	cluster.Start()
	if reason := cluster.WaitIdle(); reason != dsys.IdleQuiesced {
		t.Fatalf("the run ended %s", reason)
	}
	if err := write.Wait(); err != nil {
		t.Fatal(err)
	}
	if fault := cluster.WireFault(); fault != nil {
		t.Fatal(fault)
	}

	// Sort what took effect into the write's four rounds.
	delivered := log.deliveries()
	var query []int // indices into delivered
	var first, followUp []updateRMW
	var gcCount int
	for i, d := range delivered {
		switch r := d.rmw.(type) {
		case readTSRMW:
			query = append(query, i)
		case updateRMW:
			if len(r.full) == 0 {
				first = append(first, r)
			} else {
				followUp = append(followUp, r)
			}
		case gcRMW:
			gcCount++
		default:
			t.Fatalf("the write sent a %T", d.rmw)
		}
	}
	if len(query) != n || len(first) != n || gcCount != n || len(followUp) == 0 || followUp[0].piece.Block.Index != 1 {
		t.Fatalf("%d queries, %d first updates, %d follow-ups and %d GCs took effect; want %d of each but the follow-ups, object 0's first",
			len(query), len(first), len(followUp), gcCount, n)
	}
	if first[n-1].piece.Block.Index != late+1 {
		t.Errorf("the last first update to take effect is object %d's, want the late object's", first[n-1].piece.Block.Index-1)
	}

	// The late object's query took effect after the write returned, and the
	// object computed its answer all the same.
	straggler := delivered[query[n-1]]
	if query[n-1] < returned || straggler.object != late {
		t.Fatalf("the last query to take effect is object %d's, delivered %d of %d RMWs in, when the write returned after %d; want the late object's, after",
			straggler.object, query[n-1], len(delivered), returned)
	}
	if want := (readTSResp{StoredTS: register.ZeroTS, MaxNum: 1}); straggler.rmw.(readTSRMW).resp != want {
		t.Errorf("the late object answered %+v, want %+v", straggler.rmw.(readTSRMW).resp, want)
	}

	// None of it reached the client: the memory its rounds were built in is
	// as the write left it.
	for name, round := range map[string]any{"query": queries, "update": updates, "follow-up": followUps, "GC": gcs} {
		for i, v := 0, reflect.ValueOf(round); i < v.Len(); i++ {
			if !v.Index(i).IsZero() {
				t.Errorf("%s round: slot %d of the memory the write's RMWs were built in holds %+v after the write returned", name, i, v.Index(i))
			}
		}
	}
}
