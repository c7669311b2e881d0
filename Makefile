# Verification entry points. `make verify` is the full gate CI runs
# (.github/workflows/verify.yml); the narrower targets exist for local
# iteration.

GO ?= go
BIN := $(CURDIR)/bin

.PHONY: verify build test race vet census race-matrix fuzz-smoke stress lcwsvet bench-fork bench-steal bench-exec bench-mem bench-qos bench-elastic submit-stress trace-smoke clean

verify: build test race vet fuzz-smoke stress submit-stress trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Build the repo's concurrency linter and run it through go vet's
# -vettool protocol so test files and build-tag variants are covered.
lcwsvet:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lcwsvet ./cmd/lcwsvet

vet: lcwsvet
	$(GO) vet -vettool=$(BIN)/lcwsvet ./...

# Regenerate ANALYSIS.json, the committed concurrency-manifest census
# (per-field access counts by declared class). CI re-runs this and
# fails on a diff, so discipline drift must land as a reviewed change.
census: lcwsvet
	$(BIN)/lcwsvet -report ANALYSIS.json ./...

# Race-detector smoke of the scheduler core and injector at the
# interesting parallelism points: P=1 makes a counter reader spinning in
# quiesce share the only processor with the workers it waits for, P=2
# maximizes owner/thief interleaving on one victim, P=8 exercises the
# multi-victim paths.
race-matrix:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/core
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/core ./internal/injector
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/core ./internal/injector
	GOMAXPROCS=4 $(GO) test -race -count=2 -run 'TestMultFree' ./internal/core

# 10-second fuzz smoke of the split deque's sequential-model fuzzer;
# regressions in the deque invariants surface here fast.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSplitDequeOwnerOps -fuzztime=10s ./internal/deque

# Short adversarial soak across all policies under the race detector.
stress:
	$(GO) run -race ./cmd/deqstress -duration 20s

# Fork-overhead microbenchmarks: regenerates BENCH_fork.json (the perf
# trajectory document, see README) and prints a per-policy summary with
# the speedup against the recorded pre-optimization baseline.
bench-fork:
	$(GO) run ./cmd/lcwsbench -forkbench -forkjson BENCH_fork.json

# Steal-latency ping-pong benchmarks: regenerates BENCH_steal.json with
# the time-to-first-steal of the sleep-ladder baseline vs the StealBatch
# parking-lot mode (see README and DESIGN.md §8).
bench-steal:
	$(GO) run ./cmd/lcwsbench -stealbench -stealjson BENCH_steal.json

# Executor-lifecycle benchmarks: regenerates BENCH_exec.json comparing
# the per-Run cost of the resident pool against the spawn-per-run
# lifecycle the scheduler had before the persistent executor (see
# README and DESIGN.md §10).
bench-exec:
	$(GO) run ./cmd/lcwsbench -execbench -execjson BENCH_exec.json

# Memory benchmarks: regenerates BENCH_mem.json measuring steady-state
# HeapInuse across the mixed-width job stream (the flat-memory claim of
# the bounded freelists and recycle shards) plus the deque growth/spill
# engagement runs (see README and DESIGN.md §12). The flatness gate
# itself is TestMemFlatAcrossJobs in internal/perf.
bench-mem:
	$(GO) run ./cmd/lcwsbench -membench -memjson BENCH_mem.json

# Multi-tenant QoS benchmarks: regenerates BENCH_qos.json measuring the
# weighted-fair injector's pickup shares over a pre-stacked backlog and
# the High class's pickup latency under a saturating Low flood, with an
# all-Normal control showing the backlog latency QoS removes (see
# README). The fairness and starvation gates themselves are
# TestQoSWeightedSharesConverge and TestQoSHighNotStarvedUnderLowFlood
# in internal/perf.
bench-qos:
	$(GO) run ./cmd/lcwsbench -qosbench -qosjson BENCH_qos.json

# Elastic-pool lifecycle benchmark: regenerates BENCH_elastic.json
# walking each policy's pool through demand growth, retire-on-idle, the
# idle CPU-cost window, and regrowth over recycled slots (see README).
# The lifecycle gate itself is TestElasticLifecycle in internal/perf.
bench-elastic:
	$(GO) run ./cmd/lcwsbench -elasticbench -elasticjson BENCH_elastic.json

# Concurrent-submission soak under the race detector: many submitter
# goroutines, overlapping jobs, panics and cancellations over one
# resident pool.
submit-stress:
	$(GO) test -race -run 'TestConcurrentSubmitters|TestCloseRacesInFlightSubmissions|TestPanicFailsOnlyItsJob|TestPerJobStatsExactUnderOverlap|TestCancelMidJob|TestMultFreeParForShadowStress' -count=2 ./internal/core

# Flight-recorder smoke: run a traced oversubscribed workload, export
# its Chrome trace (TRACE_OUT, default trace.json) and validate the
# trace_event schema with cmd/tracecheck. The file loads directly in
# Perfetto (https://ui.perfetto.dev) or chrome://tracing.
TRACE_OUT ?= trace.json
trace-smoke:
	$(GO) run ./cmd/lcwsbench -trace $(TRACE_OUT)
	$(GO) run ./cmd/tracecheck $(TRACE_OUT)

clean:
	rm -rf $(BIN)
