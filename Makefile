GO ?= go

.PHONY: all build vet test race verify soak chaos-soak bench bench-check experiments snapshot-smoke shard-smoke eval-smoke hidsbench-smoke build-chaos-smoke remote-chaos-smoke

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the unit suite under the race detector with shuffled test
# order; the thousand-agent fleet soak is excluded (-short) and has
# its own target below.
race:
	$(GO) test -race -shuffle=on -short ./...

# verify is the CI gate: static checks, build, and the full suite
# under the race detector (the experiment engine is parallel; every
# PR must stay race-clean).
verify: vet build race

# soak runs the fleet end-to-end suite — console + 1000 agents over
# the in-memory transport, twice, asserting identical Results — under
# the race detector. CI runs this as its own job.
soak:
	$(GO) test -race -run TestFleet ./internal/fleet -timeout 10m -v

# chaos-soak runs the heavyweight fault-injection grid — fleet runs
# under drop/reset/partition/crash plans, asserting bit-identical
# convergence with the fault-free baseline (and deterministic degraded
# results for permanent losses) — under the race detector. The quick
# members of the fault suite run in every `make race`; these are the
# -short-skipped chaos grids. CI runs this as its own job.
chaos-soak:
	$(GO) test -race -run TestChaos ./internal/fleet -timeout 15m -v

# bench runs the per-experiment benchmarks — root package plus the
# generation-path microbenches in internal/trace and internal/xrand —
# and records them as BENCH_repro.json, the perf trajectory checked
# in with each PR.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m . ./internal/trace ./internal/xrand | tee /tmp/bench_repro.txt
	./scripts/bench_json.sh /tmp/bench_repro.txt scripts/seed_baseline.bench > BENCH_repro.json
	@echo wrote BENCH_repro.json

# bench-check re-measures the suite and fails if any benchmark
# regressed >20% in ns/op or >25% in allocs/op vs the committed
# BENCH_repro.json. Run it before a perf PR; `make bench` afterwards
# to refresh the baseline.
bench-check:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m . ./internal/trace ./internal/xrand | tee /tmp/bench_check.txt
	./scripts/bench_json.sh -check /tmp/bench_check.txt BENCH_repro.json

# snapshot-smoke proves the on-disk workspace store end to end: the
# first pass materializes a small enterprise into the store and runs
# the golden/equivalence/sweep suites against it (cold, sharded write
# path); the second pass re-runs them riding the mapped snapshot
# (warm path). -count=1 defeats the test cache so the warm pass
# really re-executes. CI runs this as its own job with the store
# cached between runs.
SNAPSHOT_SMOKE_DIR ?= /tmp/repro-snapshot-smoke
snapshot-smoke:
	REPRO_SNAPSHOT_DIR=$(SNAPSHOT_SMOKE_DIR) $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestAttackSweep|TestEnterprise' .
	REPRO_SNAPSHOT_DIR=$(SNAPSHOT_SMOKE_DIR) $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestAttackSweep|TestEnterprise' .

# shard-smoke proves the distributed snapshot build end to end at the
# process level: for each suite key, two tracegen worker processes
# seal disjoint -shard-range parts, a third invocation merges them
# into the canonical snapshot, and the golden + equivalence suites
# then run warm through the merged store — so the suites' pinned
# outputs certify the merged bytes, not just the merge's own
# checksums. `tracegen gc -dry-run` sweeps the store at the end as a
# lifecycle smoke. CI runs this as its own job.
SHARD_SMOKE_DIR ?= /tmp/repro-shard-smoke
shard-smoke:
	rm -rf $(SHARD_SMOKE_DIR)
	$(GO) build -o /tmp/repro-tracegen ./cmd/tracegen
	/tmp/repro-tracegen -snapshot $(SHARD_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -shard-range 0:11
	/tmp/repro-tracegen -snapshot $(SHARD_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -shard-range 11:20
	/tmp/repro-tracegen -snapshot $(SHARD_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -merge
	/tmp/repro-tracegen -snapshot $(SHARD_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -shard-range 0:23
	/tmp/repro-tracegen -snapshot $(SHARD_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -shard-range 23:40
	/tmp/repro-tracegen -snapshot $(SHARD_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -merge
	REPRO_SNAPSHOT_DIR=$(SHARD_SMOKE_DIR) $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestEnterprise' .
	/tmp/repro-tracegen gc -snapshot $(SHARD_SMOKE_DIR) -keep 2 -dry-run

# eval-smoke proves bounded-heap streaming evaluation end to end: a
# weighted two-worker tracegen build seals the store through the
# splice merge (exercising CutRanges + part concatenation), the golden
# and equivalence suites then run warm with streaming armed
# (REPRO_STREAM_SHARD) — so every pinned output certifies the
# shard-by-shard path — and the sweep CLI runs a whole-heap and a
# streaming trial against the same store, printing the aggregate
# wall-clock/peak-RSS table. CI runs this as its own job.
EVAL_SMOKE_DIR ?= /tmp/repro-eval-smoke
eval-smoke:
	rm -rf $(EVAL_SMOKE_DIR)
	$(GO) build -o /tmp/repro-tracegen ./cmd/tracegen
	$(GO) build -o /tmp/repro-experiments ./cmd/experiments
	/tmp/repro-tracegen -snapshot $(EVAL_SMOKE_DIR) -users 40 -weeks 2 -seed 1 -workers 2
	REPRO_SNAPSHOT_DIR=$(EVAL_SMOKE_DIR) REPRO_STREAM_SHARD=7 $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestStreaming' .
	printf '[{"name":"whole-heap","users":40,"seed":1,"run":"fig3a,table3"},{"name":"stream-7","users":40,"seed":1,"streamShard":7,"run":"fig3a,table3"}]' > /tmp/repro-eval-sweep.json
	/tmp/repro-experiments -snapshot $(EVAL_SMOKE_DIR) -configs /tmp/repro-eval-sweep.json

# hidsbench-smoke runs the benchmark module's smoke test under the race
# detector: every hidsbench workload at tiny scale, each op's digests
# checked against its reference (stream against the whole-heap
# outputs, build against a single-process store, fleet-heal against
# the fault-free run). bench/ is its own Go module, so `make race`
# never reaches it. About 10 s. CI runs this as its own job.
hidsbench-smoke:
	cd bench && $(GO) test -race -short ./...

# build-chaos-smoke proves the fault-tolerant build coordinator end to
# end at the process level: for each suite key, a 2-worker coordinated
# build runs under a seeded crash+slow fault plan, halting once
# mid-build (-halt-after) and resuming from the verified parts on a
# second invocation; the golden + equivalence suites then run warm
# through the merged stores — so the suites' pinned outputs certify
# that builds which crashed, slowed and resumed sealed the exact clean
# bytes. `tracegen gc -part-age -dry-run` sweeps the store at the end
# as an abandoned-build lifecycle smoke.
BUILD_CHAOS_SMOKE_DIR ?= /tmp/repro-build-chaos-smoke
BUILD_CHAOS_FAULTS = crash=0.3,slow=0.3,slowms=20,limit=2
build-chaos-smoke:
	rm -rf $(BUILD_CHAOS_SMOKE_DIR)
	$(GO) build -o /tmp/repro-tracegen ./cmd/tracegen
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -coordinate -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 9 -retries 6 -halt-after 1
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -coordinate -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 9 -retries 6
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -coordinate -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 11 -retries 6 -halt-after 1
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -coordinate -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 11 -retries 6
	REPRO_SNAPSHOT_DIR=$(BUILD_CHAOS_SMOKE_DIR) $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestEnterprise' .
	/tmp/repro-tracegen gc -snapshot $(BUILD_CHAOS_SMOKE_DIR) -keep 2 -part-age 1ns -dry-run

# remote-chaos-smoke proves the multi-host build transport end to end
# at the process level: two `tracegen -serve` daemons on loopback, a
# `-coordinate -hosts` build streaming sealed parts from them, one
# daemon SIGKILLed mid-stream, a halt + resume against the survivor,
# and a second suite key built with the dead host still listed; the
# golden + equivalence suites then run warm through the merged store —
# so the suites' pinned outputs certify that remotely built,
# killed-mid-stream, resumed parts sealed the exact clean bytes.
# `tracegen gc -dry-run` sweeps the store at the end as a lifecycle
# smoke.
REMOTE_CHAOS_SMOKE_DIR ?= /tmp/repro-remote-chaos-smoke
remote-chaos-smoke:
	$(GO) build -o /tmp/repro-tracegen ./cmd/tracegen
	TRACEGEN=/tmp/repro-tracegen ./scripts/remote_chaos_smoke.sh $(REMOTE_CHAOS_SMOKE_DIR)
	REPRO_SNAPSHOT_DIR=$(REMOTE_CHAOS_SMOKE_DIR)/store $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestEnterprise' .
	/tmp/repro-tracegen gc -snapshot $(REMOTE_CHAOS_SMOKE_DIR)/store -keep 2 -dry-run

experiments:
	$(GO) run ./cmd/experiments
