package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
	"spacebounds/internal/workload"
)

// Two adaptive registers that break FW-termination on purpose: one starves
// every odd-numbered client's reads without sending a round, the other
// fails every write once its rounds have run.
const (
	starvedReads = "adaptive-starved-reads"
	failedWrites = "adaptive-failed-writes"
)

var errPlantedWrite = errors.New("planted write failure")

type starvedReadsRegister struct{ register.Register }

func (r starvedReadsRegister) Read(h *dsys.ClientHandle) (value.Value, error) {
	if h.ID()%2 == 1 {
		return value.Value{}, register.ErrReadStarved
	}
	return r.Register.Read(h)
}

type failedWritesRegister struct{ register.Register }

func (r failedWritesRegister) Write(h *dsys.ClientHandle, v value.Value) error {
	if err := r.Register.Write(h, v); err != nil {
		return err
	}
	return errPlantedWrite
}

func init() {
	register.RegisterProvider(starvedReads, func(cfg register.Config) (register.Register, error) {
		reg, err := register.NewByName("adaptive", cfg)
		return starvedReadsRegister{reg}, err
	})
	register.RegisterProvider(failedWrites, func(cfg register.Config) (register.Register, error) {
		reg, err := register.NewByName("adaptive", cfg)
		return failedWritesRegister{reg}, err
	})
}

// TestFailedOperationFailsTheSeed: an operation that fails while its client
// survives fails the seed, and the report names the operation and the
// condition it breaks.
func TestFailedOperationFailsTheSeed(t *testing.T) {
	for _, tc := range []struct {
		provider, kind string
		clients        map[int]bool // the client IDs whose operations fail
	}{
		{starvedReads, "read", map[int]bool{1: true, 3: true}},
		{failedWrites, "write", map[int]bool{1: true, 2: true, 3: true}},
	} {
		t.Run(tc.provider, func(t *testing.T) {
			res, err := Run(Config{Seed: 1, Shards: []ShardPlan{{Provider: tc.provider}}, Clients: 3, OpsPerClient: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Failed() || len(res.LivenessViolations) == 0 {
				t.Fatalf("a failed %s must fail the seed:\n%s", tc.kind, FormatFailure(res))
			}
			report := FormatFailure(res)
			shardName := "s0-" + tc.provider + " (" + tc.provider + ") "
			for _, v := range res.LivenessViolations {
				rest, ok := strings.CutPrefix(v, shardName)
				if !ok || !strings.Contains(v, " "+tc.kind+": ") || !strings.HasSuffix(v, ": breaks FW-termination") {
					t.Errorf("violation %q does not name the shard, the %s and FW-termination", v, tc.kind)
				}
				var client, op int
				if _, err := fmt.Sscanf(rest, "client %d op %d", &client, &op); err != nil || !tc.clients[client] || op < 0 || op >= 4 {
					t.Errorf("violation %q names client %d op %d (%v)", v, client, op, err)
				}
				if !strings.Contains(report, "operation failed: "+v+"\n") {
					t.Errorf("report misses %q:\n%s", v, report)
				}
			}
			again, err := Run(Config{Seed: 1, Shards: []ShardPlan{{Provider: tc.provider}}, Clients: 3, OpsPerClient: 4})
			if err != nil {
				t.Fatal(err)
			}
			if again.Fingerprint != res.Fingerprint {
				t.Fatal("a failing seed must replay to its fingerprint")
			}
		})
	}
}

func TestLivenessConditionPerProvider(t *testing.T) {
	for provider, want := range map[string]string{
		"adaptive": "FW-termination", "ecreg": "FW-termination",
		"abd": "wait-freedom", "safereg": "wait-freedom",
	} {
		if got := livenessFor(provider); got != want {
			t.Errorf("livenessFor(%q) = %q, want %q", provider, got, want)
		}
	}
}

// TestRunShardedCountsFailedOperations: the live workload runs the same
// client program, so it counts the starved reads as read errors: exactly the
// reads its odd-numbered clients drew.
func TestRunShardedCountsFailedOperations(t *testing.T) {
	set, err := shard.New([]shard.Spec{{Name: "s0", Algorithm: starvedReads, Config: register.Config{F: 1, K: 2, DataLen: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	spec := workload.ShardedSpec{Clients: 4, OpsPerClient: 10, ReadFraction: 0.5, Keys: 4, Seed: 3}
	res, err := workload.RunSharded(set, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the clients' draws: a key, then read or write.
	reads, starved := 0, 0
	for cl := 1; cl <= spec.Clients; cl++ {
		rng := rand.New(rand.NewSource(spec.Seed + int64(cl)))
		for i := 0; i < spec.OpsPerClient; i++ {
			rng.Intn(spec.Keys)
			if rng.Float64() < spec.ReadFraction {
				reads++
				if cl%2 == 1 {
					starved++
				}
			}
		}
	}
	if starved == 0 {
		t.Fatal("no odd client drew a read; pick another seed")
	}
	if res.ReadErrors != starved || res.CompletedReads != reads-starved || res.WriteErrors != 0 ||
		res.CompletedWrites != spec.Clients*spec.OpsPerClient-reads {
		t.Fatalf("got %d/%d reads and %d/%d writes completed/failed, want %d/%d and %d/0",
			res.CompletedReads, res.ReadErrors, res.CompletedWrites, res.WriteErrors,
			reads-starved, starved, spec.Clients*spec.OpsPerClient-reads)
	}
}
