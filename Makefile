GO ?= go

.PHONY: all build vet test race verify deadcode soak chaos-soak fuzz bench bench-check experiments snapshot-smoke eval-smoke hidsbench-smoke build-chaos-smoke remote-chaos-smoke

all: verify

build:
	$(GO) build ./...

# vet also covers the bench module (its own go.mod, so ./... at the
# root never reaches it): it compiles against fleet.Config and the
# other library APIs hidsbench drives.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

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

# deadcode links every cmd/* command and bench/cmd/hidsbench with the
# linker's -dumpdep and fails on any library function none of them
# reaches that is not on scripts/deadcode/allow.txt, and on any
# allowlist entry that is reached again or names no function. CI runs
# it in the verify job.
deadcode:
	$(GO) run ./scripts/deadcode

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

# fuzz runs each native fuzz target for a bounded time: the console
# frame reader and its two binary payload codecs, the remote build
# transport's frames, the snapshot and part header parsers, the part
# gate (VerifyPart on mutated and re-sealed parts), the .etr trace
# reader, and the window-count sort against sort.Float64s. Seed
# corpora live in each package's testdata/fuzz; go test runs them as
# plain tests too. CI runs this as its own job.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadMsg$$' -fuzztime 10s ./internal/console
	$(GO) test -run '^$$' -fuzz '^FuzzDistUpload$$' -fuzztime 10s ./internal/console
	$(GO) test -run '^$$' -fuzz '^FuzzAlertBatch$$' -fuzztime 10s ./internal/console
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 10s ./internal/remotework
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotHeader$$' -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyPart$$' -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzTraceReader$$' -fuzztime 10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzSortCounts$$' -fuzztime 10s ./internal/stats

# bench runs the per-experiment benchmarks — root package, the
# generation-path microbenches in internal/trace and internal/xrand,
# the verified store open (internal/snapshot), the fleet-scale
# configure (internal/core), the frontier and sorted-column
# microbenches (internal/stats), the 1000-user configure and score
# passes and cold builds (internal/analysis), and the detection loop's wire codec
# (internal/console), 250- and 1000-agent fleet runs (internal/fleet)
# and collaborative quorum (internal/collab), and the
# remote build transport's chunk fetch (internal/remotework) — and
# records them as BENCH_repro.json, the
# perf trajectory checked in with each PR. The hand-recorded
# before_after section of the old file is carried over.
BENCH_PKGS = . ./internal/trace ./internal/xrand ./internal/snapshot ./internal/core ./internal/stats ./internal/analysis ./internal/console ./internal/fleet ./internal/collab ./internal/remotework
bench:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m $(BENCH_PKGS) | tee /tmp/bench_repro.txt
	./scripts/bench_json.sh /tmp/bench_repro.txt scripts/seed_baseline.bench BENCH_repro.json > /tmp/bench_repro.json
	mv /tmp/bench_repro.json BENCH_repro.json
	@echo wrote BENCH_repro.json

# bench-check re-measures the suite and fails if any benchmark
# regressed >20% in ns/op or >25% in allocs/op vs the committed
# BENCH_repro.json. Run it before a perf PR; `make bench` afterwards
# to refresh the baseline.
bench-check:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m $(BENCH_PKGS) | tee /tmp/bench_check.txt
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

# eval-smoke proves bounded-heap streaming evaluation end to end: a
# weighted two-worker tracegen build seals the store through the
# splice merge (exercising CutRanges + part concatenation), the golden
# and equivalence suites then run warm with streaming armed
# (REPRO_STREAM_SHARD) — so every pinned output certifies the bounded
# shard-by-shard path — together with the shard-size-invariance suite
# and the REPRO_STREAM_SHARD plumbing test, and the sweep CLI runs an
# unbounded (whole-heap) and a bounded trial against the same store,
# printing the aggregate wall-clock/peak-RSS table. CI runs this as
# its own job.
EVAL_SMOKE_DIR ?= /tmp/repro-eval-smoke
eval-smoke:
	rm -rf $(EVAL_SMOKE_DIR)
	$(GO) build -o /tmp/repro-tracegen ./cmd/tracegen
	$(GO) build -o /tmp/repro-experiments ./cmd/experiments
	/tmp/repro-tracegen -snapshot $(EVAL_SMOKE_DIR) -users 40 -weeks 2 -seed 1 -workers 2
	REPRO_SNAPSHOT_DIR=$(EVAL_SMOKE_DIR) REPRO_STREAM_SHARD=7 $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|ShardSizeInvariance|TestStreamShardEnvArmsStreaming' .
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
# end at the process level: for each suite key, a 2-worker tracegen
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
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 9 -retries 6 -halt-after 1
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 20 -weeks 2 -seed 1 -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 9 -retries 6
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 11 -retries 6 -halt-after 1
	/tmp/repro-tracegen -snapshot $(BUILD_CHAOS_SMOKE_DIR) -users 40 -weeks 2 -seed 7 -workers 2 -ranges 4 -fault "$(BUILD_CHAOS_FAULTS)" -fault-seed 11 -retries 6
	REPRO_SNAPSHOT_DIR=$(BUILD_CHAOS_SMOKE_DIR) $(GO) test -count=1 -run 'TestGolden|TestWorkspace|TestFig|TestTable|TestEnterprise' .
	/tmp/repro-tracegen gc -snapshot $(BUILD_CHAOS_SMOKE_DIR) -keep 2 -part-age 1ns -dry-run

# remote-chaos-smoke proves the multi-host build transport end to end
# at the process level: two `tracegen serve` daemons on loopback, a
# `tracegen -hosts` build streaming sealed parts from them, one
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
