package sim

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this build")

const goldenPath = "testdata/fingerprints.golden"

type goldenConfig struct {
	name string
	cfg  Config
}

// goldenConfigs mirrors the configurations of `make sim-smoke` (every provider
// × two shards, sequential and reconfig, plus the mixed-provider legs) and the
// reconfiguration legs of `make sim-soak-merge` (4 clients, 6 operations, one
// split, one drain, two merges, two controller crashes).
func goldenConfigs() []goldenConfig {
	smoke := ReconfigPlan{Splits: 1, Drains: 1, Merges: 1}
	merge := ReconfigPlan{Splits: 1, Drains: 1, Merges: 2, ControllerCrashes: 2}
	var out []goldenConfig
	var mixed []ShardPlan
	for _, p := range DefaultProviders {
		two := []ShardPlan{{Provider: p}, {Provider: p}}
		mixed = append(mixed, ShardPlan{Provider: p})
		out = append(out,
			goldenConfig{p + " x2", Config{Shards: two, Clients: 3, OpsPerClient: 4}},
			goldenConfig{p + " sequential", Config{Shards: two[:1], Clients: 1, OpsPerClient: 6, CheckLinearizable: true}},
			goldenConfig{p + " reconfig", Config{Shards: two, Clients: 3, OpsPerClient: 6, Reconfig: smoke}},
			goldenConfig{p + " merge-soak", Config{Shards: two, Clients: 4, OpsPerClient: 8, Reconfig: merge}},
		)
	}
	return append(out,
		goldenConfig{"mixed providers", Config{Shards: mixed, Clients: 3, OpsPerClient: 4}},
		goldenConfig{"mixed reconfig", Config{Shards: mixed, Clients: 3, OpsPerClient: 4, Reconfig: smoke}},
		goldenConfig{"mixed merge-soak", Config{Shards: mixed, Clients: 4, OpsPerClient: 6, Reconfig: merge}},
	)
}

// TestFingerprintsGolden pins the schedule of every swept configuration for
// seeds 1–5: a change that is not meant to move the controlled-mode simulator
// must leave every fingerprint byte-identical. Regenerate with
// `go test ./internal/sim -run TestFingerprintsGolden -update` only for a
// change that moves schedules on purpose, and say which legs moved and why.
func TestFingerprintsGolden(t *testing.T) {
	var got []string
	for _, c := range goldenConfigs() {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := c.cfg
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			got = append(got, fmt.Sprintf("%s seed %d %s", c.name, seed, res.Fingerprint))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
