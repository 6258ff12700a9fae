GO ?= go

# Minimum total test coverage (percent) enforced by `make cover`.
COVER_FLOOR ?= 78
# Seeds per configuration for the simulator sweeps (sim-smoke runs fewer).
SIM_SEEDS ?= 500
SIM_SMOKE_SEEDS ?= 50
# Fuzzing budget for the checker fuzz smoke.
FUZZ_TIME ?= 20s

.PHONY: build test test-purego race flake loc bench benchmark benchmark-compare benchmark-test cover fmt-check examples sim-smoke sim-soak sim-soak-reconfig sim-soak-merge fuzz-smoke e2e-smoke e2e-chaos e2e-recovery linkcheck

# Compile everything and run static checks.
build:
	$(GO) build ./...
	$(GO) vet ./...

# Full unit and integration test suite.
test:
	$(GO) test ./...

# The portable GF(256) kernel, compiled, vetted and tested where it would
# otherwise never run: -tags purego builds internal/gf256 without its amd64
# assembly, and the codes and the register that moves their blocks are tested
# on the Go loops alone. The arm64 vet compiles the packages, tests included,
# for an architecture that has no assembly file at all.
test-purego:
	$(GO) vet -tags purego ./internal/gf256/... ./internal/erasure/...
	GOARCH=arm64 $(GO) vet ./internal/gf256/... ./internal/erasure/...
	$(GO) test -tags purego ./internal/gf256/... ./internal/erasure/... ./internal/register/adaptive/...

# Race-detector pass over every package (commands and examples included),
# bounded so a scheduling deadlock fails fast instead of hanging CI.
race:
	$(GO) test -race -timeout 10m ./...

# Flake hunt (nightly): the short tests of the packages whose tests wait on
# real time, goroutines or sockets — the batch lanes' lead hand-off, and the
# transport's held-back frames (a queued read response, a straggler update, a
# round parked beside an oversized request) and the reconfiguration moves run
# while writers hammer their shards among them — twenty times over, so
# a test that is only quiescent by luck fails here before it fails in tier-1;
# and the erasure codes, whose data blocks share memory with the value they
# encode: what the tests say about who owns a block must hold every time;
# and the process assembly and the write-ahead log, whose tests start
# servers and snapshotters and must take every goroutine down.
flake:
	$(GO) test -count=20 -short . ./internal/shard/... ./internal/transport/... ./internal/register/... ./internal/dsys/... ./internal/workload/... ./internal/erasure/... ./internal/reconfig/... ./internal/node/... ./internal/wal/... ./internal/oracle/...

# Non-test code lines outside bench/: no blank lines, no comment-only lines.
# The command is PR 20's, so every PR reports the same number the same way.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | grep -v '^[[:space:]]*$$' | grep -v '^[[:space:]]*//' | wc -l

# Smoke-compile and smoke-run every `go test` benchmark once (the E1-E8
# experiment benchmarks and the substrate micro-benchmarks: the ladder rows
# BenchmarkBatcherSubmit, BenchmarkInvokeRound (a read round, 512-byte and
# 16 KiB pieces), BenchmarkAdaptiveOverTCP (one write, one read over loopback
# TCP: 1 KiB at f=1 k=2, tcp-small's shape, and 64 KiB at f=2 k=4, tcp-large's;
# a write returns at its update quorum, its GC posted), BenchmarkServeRequest
# (an update, a posted GC, a 16 KiB read, a timestamp query),
# BenchmarkSegmentsWrite, BenchmarkJournalAppend, BenchmarkReedSolomon and
# the vector and portable rows of BenchmarkDotSlices and BenchmarkMulAdd among
# them) so they keep working. It judges nothing; `make benchmark` does.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# "Did it regress": the repository's benchmark (BENCHMARK.json, bench/) — four
# closed-loop workloads over real sockets and a real WAL, every run checked
# for correctness and against the paper's quiescent storage cost. Saves the
# set under bench/out/. "Where did the time go": `bash bench/run.sh -trace 1`
# prints the per-layer metrics (bench/README.md lists every flag).
benchmark:
	bash bench/run.sh

# Judge two saved sets against the bounds in BENCHMARK.json:
# make benchmark-compare A=BENCH_17.json B=bench/out/<set>.json
benchmark-compare:
	bash bench/run.sh -compare $(A) $(B)

# The benchmark's own tests. bench/ is a nested module, so `go test ./...` at
# the root (and `make cover`) does not walk it.
benchmark-test:
	cd bench && $(GO) test ./...

# Coverage with an enforced floor.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Fail if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Quick deterministic fault-schedule sweep (PR CI): every provider ×
# concurrent/sequential/reconfig/mixed configuration — the reconfig legs run
# a split, a drain and a merge mid-traffic and check the stitched (and
# pruned-branch) cross-epoch histories. Fails with a replayable report in
# sim-failures.txt.
sim-smoke:
	$(GO) run ./cmd/spacebench -sim -seeds $(SIM_SMOKE_SEEDS) -sim-out sim-failures.txt

# Nightly soak: the same sweep at full depth.
sim-soak:
	$(GO) run ./cmd/spacebench -sim -seeds $(SIM_SEEDS) -sim-out sim-failures.txt

# Nightly reconfiguration-heavy soak: two splits and two drains per run under
# more clients and operations, so migration chains (splitting a successor,
# draining a split child) and dual-epoch reads get deep coverage.
sim-soak-reconfig:
	$(GO) run ./cmd/spacebench -sim -seeds $(SIM_SEEDS) -sim-clients 4 -sim-ops 6 \
		-sim-reconfig-splits 2 -sim-reconfig-drains 2 -sim-reconfig-merges 0 \
		-sim-out sim-failures-reconfig.txt

# Nightly merge + controller-crash soak: splits, drains and two merges per
# run with the adversary crashing the migration controller between migration
# steps (two budgeted crashes; standby controllers resume from the step
# ledger). A run fails on any checker violation, any move left unresolved, or
# any route left Seeding/Draining at run end.
sim-soak-merge:
	$(GO) run ./cmd/spacebench -sim -seeds $(SIM_SEEDS) -sim-clients 4 -sim-ops 6 \
		-sim-reconfig-splits 1 -sim-reconfig-drains 1 -sim-reconfig-merges 2 \
		-sim-controller-crashes 2 -sim-out sim-failures-merge.txt

# Short coverage-guided fuzz runs. Defaults to the history package, where
# FuzzCheckers pins the consistency-condition hierarchy and checker
# determinism and FuzzHistoryMerge (FUZZ_TARGET=FuzzHistoryMerge) the
# cross-epoch stitching invariants; FUZZ_TARGET=FuzzEnvelopeRoundTrip
# FUZZ_PKG=./internal/register fuzzes the wire codecs of all four register
# providers (any payload that decodes must re-encode byte-identically);
# FUZZ_TARGET=FuzzWALReplay FUZZ_PKG=./internal/wal feeds damaged segment and
# snapshot files to the write-ahead log, among them what a short write, a full
# disk and a failing fsync leave behind (open + replay must refuse or repair,
# never panic; PR CI runs it for 10 s); FUZZ_TARGET=FuzzReedSolomonRoundTrip FUZZ_PKG=./internal/erasure
# round-trips the systematic Reed-Solomon code over random shapes and block
# selections (all data, all parity, mixed; duplicates and surplus blocks);
# FUZZ_TARGET=FuzzKernelsMatchScalar FUZZ_PKG=./internal/gf256 compares the
# vector and the portable GF(256) slice kernels with scalar Mul over random
# coefficients, lengths, offsets and bytes (PR CI runs it for 10 s).
FUZZ_TARGET ?= FuzzCheckers
FUZZ_PKG ?= ./internal/history
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=$(FUZZ_TARGET) -fuzztime=$(FUZZ_TIME) $(FUZZ_PKG)

# Black-box end-to-end smoke of the TCP transport: builds the spacenode and
# spacebench binaries, starts a 4-node cluster on ephemeral ports, runs the
# paced sharded workload as a real client, SIGKILLs one node mid-run,
# restarts it with -recover on the same port, and checks the recorded
# history for strong regularity. -short keeps the paced window brief for PR
# CI; the nightly chaos leg runs the full window repeatedly.
e2e-smoke:
	$(GO) test -run 'TestClusterEndToEnd|TestClusterMetricsEndToEnd' -short -count=1 ./cmd/spacenode

e2e-chaos:
	$(GO) test -run TestClusterEndToEnd -count=5 -timeout 15m ./cmd/spacenode

# Durable-recovery end to end: per-node WAL directories, one node SIGKILLed
# mid-run and restarted as a fresh process that must rebuild its state by
# replaying its journal before listening (asserted via its WAL REPLAY line),
# with the client's history passing the strong-regularity checker.
e2e-recovery:
	$(GO) test -run TestClusterRecoveryEndToEnd -count=1 -timeout 10m ./cmd/spacenode

# Verify every relative markdown link (README, DESIGN, ROADMAP, docs/, ...)
# resolves, including #heading anchors. Dependency-free; external URLs are
# not fetched. Blocking nightly, advisory on PRs (see ci.yml).
linkcheck:
	$(GO) run ./cmd/linkcheck

# Run every example end-to-end, then the experiment tables E1-E8. quickstart
# and kvstore exit non-zero unless storage at quiescence is Theorem 2's
# (2f+k)/k·D.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/kvstore
	$(GO) run ./cmd/spacebench
