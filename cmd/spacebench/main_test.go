package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacebounds/internal/sim"
)

func mustParse(t *testing.T, args ...string) *cliConfig {
	t.Helper()
	c, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("parseArgs(%v): %v", args, err)
	}
	return c
}

func TestParseArgsDefaults(t *testing.T) {
	c := mustParse(t)
	if c.sim || c.connect != "" || c.list {
		t.Fatalf("defaults should select experiment mode: %+v", c)
	}
	if c.seeds != 50 || c.seed != 1 {
		t.Fatalf("seed defaults wrong: seeds=%d seed=%d", c.seeds, c.seed)
	}
	if c.simProviders != "adaptive,abd,ecreg,safereg" {
		t.Fatalf("provider default wrong: %q", c.simProviders)
	}
}

func TestParseArgsClientFlags(t *testing.T) {
	c := mustParse(t, "-connect", "127.0.0.1:1", "-shards", "4", "-clients", "2", "-ops", "100",
		"-batch", "8", "-skew", "1.2", "-algo", "abd")
	if c.connect != "127.0.0.1:1" {
		t.Fatal("client mode not selected")
	}
	if c.shards != 4 || c.clients != 2 || c.ops != 100 || c.batch != 8 || c.algo != "abd" {
		t.Fatalf("flags not parsed: %+v", c)
	}
	if c.skew != 1.2 {
		t.Fatalf("skew = %v", c.skew)
	}
}

func TestParseArgsSimFlags(t *testing.T) {
	c := mustParse(t, "-sim", "-seeds", "7", "-seed", "99", "-sim-providers", "adaptive,abd",
		"-sim-shards", "1", "-sim-clients", "2", "-sim-ops", "3", "-sim-out", "x.txt")
	if !c.sim {
		t.Fatal("sim mode not selected")
	}
	if c.seeds != 7 || c.seed != 99 || c.simShards != 1 || c.simClients != 2 || c.simOps != 3 {
		t.Fatalf("sim flags not parsed: %+v", c)
	}
	if c.simOut != "x.txt" {
		t.Fatalf("sim-out = %q", c.simOut)
	}
}

func TestParseArgsRejectsGarbage(t *testing.T) {
	if _, err := parseArgs([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag must error")
	}
	if _, err := parseArgs([]string{"stray"}, io.Discard); err == nil {
		t.Fatal("positional arguments must error")
	}
}

func TestListExperimentsOutput(t *testing.T) {
	var buf strings.Builder
	if err := mustParse(t, "-list").execute(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E1") {
		t.Fatalf("experiment listing missing E1:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
		t.Fatalf("suspiciously short experiment listing:\n%s", out)
	}
}

func TestSimSweepMatrix(t *testing.T) {
	sweep := simSweep([]string{"adaptive", "abd"}, 2, 3, 4, sim.ReconfigPlan{Splits: 1, Drains: 1})
	// Two providers -> concurrent + sequential + reconfig each, plus the
	// mixed and mixed-reconfig configs.
	if len(sweep) != 8 {
		t.Fatalf("sweep has %d configurations, want 8", len(sweep))
	}
	names := make([]string, 0, len(sweep))
	for _, sc := range sweep {
		names = append(names, sc.name)
	}
	joined := strings.Join(names, ";")
	for _, want := range []string{"adaptive x2", "adaptive sequential", "adaptive reconfig",
		"abd x2", "abd sequential", "abd reconfig", "mixed providers", "mixed reconfig"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("sweep missing %q: %v", want, names)
		}
	}
	for _, sc := range sweep {
		if strings.Contains(sc.name, "sequential") {
			if sc.cfg.Clients != 1 || !sc.cfg.CheckLinearizable {
				t.Fatalf("sequential config %q must be single-client linearizable: %+v", sc.name, sc.cfg)
			}
		} else if sc.cfg.CheckLinearizable {
			t.Fatalf("concurrent config %q must not claim linearizability", sc.name)
		}
		hasPlan := sc.cfg.Reconfig.Splits > 0 || sc.cfg.Reconfig.Drains > 0
		if strings.Contains(sc.name, "reconfig") != hasPlan {
			t.Fatalf("config %q reconfig plan mismatch: %+v", sc.name, sc.cfg.Reconfig)
		}
	}
	// Disabling the plan removes the reconfig configurations.
	if n := len(simSweep([]string{"adaptive"}, 2, 3, 4, sim.ReconfigPlan{})); n != 2 {
		t.Fatalf("plan-less sweep has %d configurations, want 2", n)
	}
}

func TestSimEndToEndSmoke(t *testing.T) {
	// A seeded -sim sweep over two providers: deterministic, clean, and the
	// output names every configuration.
	args := []string{"-sim", "-seeds", "3", "-seed", "11",
		"-sim-providers", "adaptive,abd", "-sim-shards", "1", "-sim-clients", "2", "-sim-ops", "2"}
	var buf strings.Builder
	if err := mustParse(t, args...).execute(&buf); err != nil {
		t.Fatalf("sim sweep failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"adaptive x1", "abd x1", "adaptive sequential", "mixed providers",
		"adaptive reconfig", "abd reconfig", "mixed reconfig",
		"seeds 11..13: ok",
		"swept 8 configurations x 3 seeds, 0 failing seeds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sim output missing %q:\n%s", want, out)
		}
	}

	// The same sweep again produces byte-identical output.
	var buf2 strings.Builder
	if err := mustParse(t, args...).execute(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Fatalf("sim output not deterministic:\n%s\nvs\n%s", out, buf2.String())
	}
}

func TestSimWritesNoArtifactOnSuccess(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "failures.txt")
	c := mustParse(t, "-sim", "-seeds", "2", "-sim-providers", "adaptive",
		"-sim-clients", "2", "-sim-ops", "2", "-sim-out", outPath)
	if err := c.execute(io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("clean sweep must not write a failure report (stat err %v)", err)
	}
}
