package wal_test

import (
	"fmt"
	"strings"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/metrics"
	"spacebounds/internal/register"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/value"
	"spacebounds/internal/wal"
)

// metricValue reads one sample of a no-label family off the registry's
// Prometheus export.
func metricValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestMetricsObserveJournalActivity: with a registry attached, appends,
// fsyncs, replays, and snapshots show up in the WAL metric families; the
// replay summary line renders every counter; and the error/skip getters
// report a healthy journal.
func TestMetricsObserveJournalActivity(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	// A huge snapshot cadence keeps the background snapshotter quiet: the
	// only snapshot is the explicit one, so the post-snapshot record is
	// guaranteed to survive in the log for the replay below.
	n, _ := openNode(t, dir, wal.Config{SyncEvery: 1, SnapshotEvery: 1 << 30})
	n.j.SetMetrics(reg)
	n.write(t, 1, "m-one")
	n.write(t, 1, "m-two")
	if err := n.j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// One record past the snapshot: the log gauge stays non-zero after the
	// truncation and the reopen below has something to replay.
	n.write(t, 1, "m-extra")
	n.close(t)

	for _, name := range []string{
		"spacebounds_wal_appends_total",
		"spacebounds_wal_fsyncs_total",
		"spacebounds_wal_snapshots_total",
		"spacebounds_wal_log_bytes",
		"spacebounds_wal_snapshot_bytes",
	} {
		if got := metricValue(t, reg, name); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}

	// A reopening journal observes its replay on the same registry.
	reg2 := metrics.NewRegistry()
	j, err := wal.Open(wal.Config{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.SetMetrics(reg2)
	reg2reg, err := safereg.NewABD(register.Config{F: 1, K: 1, DataLen: dataLen})
	if err != nil {
		t.Fatal(err)
	}
	states, err := reg2reg.InitialStates(value.Zero(dataLen))
	if err != nil {
		t.Fatal(err)
	}
	c := dsys.NewCluster(states, dsys.WithLiveMode())
	stats, err := j.Replay(c)
	if err != nil {
		t.Fatal(err)
	}
	j.Attach(c)
	n2 := &node{reg: reg2reg, c: c, j: j}
	defer n2.close(t)
	if got := stats.String(); !strings.Contains(got, "records=") || !strings.Contains(got, "applied=") {
		t.Fatalf("ReplayStats.String() = %q", got)
	}
	if got := metricValue(t, reg2, "spacebounds_wal_replayed_records_total"); got <= 0 {
		t.Fatalf("replayed_records_total = %v, want > 0", got)
	}
	// Detach: must not panic on subsequent activity.
	n2.j.SetMetrics(nil)
	n2.write(t, 2, "m-three")

	if err := n2.j.Err(); err != nil {
		t.Fatalf("Err() = %v on a healthy journal", err)
	}
	if got := n2.j.SkippedUnknownRMWs(); got != 0 {
		t.Fatalf("SkippedUnknownRMWs = %d, want 0", got)
	}
}
