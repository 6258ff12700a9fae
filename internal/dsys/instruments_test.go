package dsys

import (
	"context"
	"testing"

	"spacebounds/internal/metrics"
	"spacebounds/internal/trace"
)

// TestInstrumentsAtConstruction builds a live cluster with a registry and a
// fully-sampled tracer and checks what the cluster owns of them: it hands both
// back to the layers above, a named region's series exist before its first
// round, rounds are counted and traced under the region's name — a region
// never named under its numeric base — and ApplyOne counts applies.
func TestInstrumentsAtConstruction(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Options{Sample: 1})
	c := newTestCluster(6, WithLiveMode(), WithMetrics(reg), WithTracer(tr))
	defer c.Close()
	if c.Metrics() != reg || c.Tracer() != tr {
		t.Fatal("the cluster does not hand back the instruments it was built with")
	}
	rounds := func(region, outcome string) int64 {
		return reg.Counter(metricRoundsTotal, "", metrics.L("region", region), metrics.L("outcome", outcome)).Value()
	}

	c.NameRegion(0, "left")
	found := false
	for _, f := range reg.Families() {
		found = found || f.Name == metricRoundSeconds
	}
	if !found {
		t.Fatal("naming a region registered no quorum-round series")
	}

	tc := tr.Begin()
	for _, base := range []int{0, 3} {
		if err := c.RunScoped(1, base, 3, func(h *ClientHandle) error {
			h = h.WithContext(trace.NewContext(context.Background(), tc))
			_, err := h.InvokeAll(func(int) RMW { return readCounterRMW{} }, 2)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := [2]int64{rounds("left", "ok"), rounds("3", "ok")}; got != [2]int64{1, 1} {
		t.Errorf("rounds counted for left, 3 = %v, want one each", got)
	}
	labels := make(map[string]bool)
	for _, s := range tr.Snapshot() {
		if s.Stage == trace.StageRound && s.Trace == tc.Trace {
			labels[s.Shard] = true
		}
	}
	if !labels["left"] || !labels["3"] {
		t.Errorf("round spans labeled %v, want left and 3", labels)
	}

	if _, err := c.ApplyOne(0, readCounterRMW{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(metricAppliesTotal, "").Value(); got != 1 {
		t.Errorf("applies counted = %d, want 1", got)
	}
}
