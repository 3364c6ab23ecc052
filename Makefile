# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race vet check perfbench-check bench bench-json bench-diff bench-parallel smoke-bench profile figures cover fuzz fuzz-short soak clean

all: build vet test

# The default verification gate: build, vet, tests, and the race detector
# over the parallel harness and routing tables.
check: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# perfbench/ is its own Go module, so `./...` above never reaches it. Its
# tests run every workload reduced and check the outputs: the sharded run
# really shards, traced and untraced twins hash alike, and the paper's
# protocol ordering holds.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# One short benchmark pass over every suite (full runs: drop -benchtime).
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 1x ./...

# Same pass in machine-readable form, recorded per day so the perf
# trajectory is tracked across PRs (see EXPERIMENTS.md "Performance").
# Three whole suite passes appended to one file (NOT -count 3, which runs
# a benchmark's repeats back-to-back so one burst of CPU steal poisons
# them all): bench-diff keeps each cell's minimum across samples that are
# minutes apart, which is robust to time-correlated steal on a shared host.
bench-json:
	{ for i in 1 2 3; do $(GO) test -run xxx -bench . -benchmem -benchtime 3x -json ./...; done; } > BENCH_$$(date +%Y-%m-%d).json

# Compare two `make bench-json` captures, named as file paths: fails when a
# tracked benchmark (the Figure-5 macro benchmarks and the batch planner)
# regressed > 10% in ns/op or allocs/op. The default pair is the committed
# same-host baseline and capture; override with
# `make bench-diff OLD=BENCH_a.json NEW=BENCH_b.json`. BENCH_PARALLEL_*.json
# files are rmsim scaling JSON, not `go test -json`, and are refused.
OLD ?= BENCH_2026-08-08-svc-base.json
NEW ?= BENCH_2026-08-08-svc.json
bench-diff:
	@case "$(OLD) $(NEW)" in *BENCH_PARALLEL_*) \
		echo "bench-diff: BENCH_PARALLEL_* files are scaling captures, not benchmark results"; exit 2;; \
	esac
	@echo "comparing $(OLD) (old) -> $(NEW) (new)"
	@$(GO) run ./cmd/benchdiff "$(OLD)" "$(NEW)"

# Cheap CI perf gate: one iteration of the n=50 macro benchmarks plus the
# allocation-budget tests, so a perf-hostile change fails fast without
# burning CI minutes on the full sweep. The n=1000 scaling cell also runs
# the O(N²) scan baseline and cross-verifies the fast path against it, and
# -simworkers adds a sharded simulation whose digest must match its serial
# twin exactly (the sweep exits nonzero on divergence). The reduced
# `figures -fig all` run drives every sweep constructor through the one
# -fig dispatch table.
smoke-bench:
	$(GO) test -run TestAllocs -count=1 ./internal/sim
	$(GO) test -run xxx -bench 'BenchmarkFigure5/n=50$$' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkCoopRecovery/n=100/chaos' -benchmem -benchtime 1x .
	$(GO) run ./cmd/rmsim -scaling -sizes 1000 -simworkers 4
	$(GO) run ./cmd/rmsim -scaling -sizes 1000 -simworkers 4 -domainsize 64
	$(GO) run ./cmd/rmsim -churn -routers 40 -packets 15
	$(GO) run ./cmd/figures -fig all -packets 10 -csv > /dev/null
	$(GO) test -run xxx -bench 'BenchmarkFailover$$' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkStrategyService/readers=4/churn=2000$$' -benchmem -benchtime 1x ./internal/strategysvc

# Wall-clock serial-vs-sharded capture for the conservative parallel engine:
# every scaling cell runs one serial and one sharded RP simulation (digest
# equality enforced) and records both times as JSON for EXPERIMENTS.md.
# Override PARALLEL_SIZES / SIMWORKERS to probe other points; set
# DOMAINSIZE to run the sharded half in hierarchical-domain mode (e.g.
# `make bench-parallel PARALLEL_SIZES=200000,1000000 DOMAINSIZE=65536`
# for the million-client tier).
PARALLEL_SIZES ?= 1000,5000,20000,50000
SIMWORKERS ?= 8
DOMAINSIZE ?= 0
bench-parallel:
	$(GO) run ./cmd/rmsim -scaling -sizes $(PARALLEL_SIZES) -simworkers $(SIMWORKERS) -domainsize $(DOMAINSIZE) -json \
		| tee BENCH_PARALLEL_$$(date +%Y-%m-%d).json

# CPU+heap profile of a representative run; inspect with `go tool pprof`.
profile:
	$(GO) run ./cmd/rmsim -routers 200 -protocol all -parallel 1 \
		-cpuprofile cpu.out -memprofile mem.out
	@echo "view: $(GO) tool pprof cpu.out   /   $(GO) tool pprof mem.out"

# Regenerate the paper's figures and the ablation tables.
figures:
	$(GO) run ./cmd/figures

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -fuzz FuzzEvalAny -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzCondLossProb -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzFastPathEquivalence -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzSchedule -fuzztime 30s ./internal/fault
	$(GO) test -fuzz FuzzMutator -fuzztime 30s ./internal/experiment
	$(GO) test -fuzz FuzzCoopDecode -fuzztime 30s ./internal/protocol/coop
	$(GO) test -fuzz FuzzElection -fuzztime 30s ./internal/protocol/rpproto
	$(GO) test -fuzz FuzzDedupCache -fuzztime 30s ./internal/protocol

# Quick fuzz pass for CI: a few seconds per target.
fuzz-short:
	$(GO) test -fuzz FuzzEvalAny -fuzztime 5s ./internal/core
	$(GO) test -fuzz FuzzCondLossProb -fuzztime 5s ./internal/core
	$(GO) test -fuzz FuzzFastPathEquivalence -fuzztime 5s ./internal/core
	$(GO) test -fuzz FuzzSchedule -fuzztime 5s ./internal/fault
	$(GO) test -fuzz FuzzMutator -fuzztime 5s ./internal/experiment
	$(GO) test -fuzz FuzzCoopDecode -fuzztime 5s ./internal/protocol/coop
	$(GO) test -fuzz FuzzElection -fuzztime 5s ./internal/protocol/rpproto
	$(GO) test -fuzz FuzzDedupCache -fuzztime 5s ./internal/protocol

# Long-haul adversarial soak: the full default mutation sweep at production
# scale plus max-intensity mutation layered over mid-severity chaos, strict
# invariant oracle on throughout. Minutes, not CI seconds.
soak:
	RMCAST_SOAK=1 $(GO) test -run TestAdversarialSoak -v -timeout 30m ./internal/experiment

clean:
	$(GO) clean ./...
