# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make bench` additionally leaves a
# machine-readable BENCH_<sha>.json so performance is tracked per commit.

SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

# The key benchmarks: the two heaviest figure cells, the paper's
# 30-transfer latency claim, the hypothesis-selection fan-out, the
# snapshot layer's concurrency/copy-on-write claims, the scenario
# overlay/batched-evaluation claims, the warm-start differential
# evaluation tiers (reuse/fork vs cold), and the end-to-end HTTP serving
# path (plus the coalescing burst). ENCODE_BENCH is the pooled response
# encoders against encoding/json, in internal/pilgrim.
KEY_BENCH := BenchmarkFigure09|BenchmarkFigure11|BenchmarkPredict30Transfers$$|BenchmarkSelectFastest|BenchmarkWarmRoute|BenchmarkConcurrentPredict30|BenchmarkWithLinkState|BenchmarkTimelineAppend|BenchmarkPredictAtHorizon|BenchmarkApplyOverlay|BenchmarkEvaluate30x8|BenchmarkEvaluateDifferential30x8|BenchmarkForkVsCold|BenchmarkGatewayEvaluateFleet|BenchmarkHTTPPredict30|BenchmarkHTTPEvaluate30x8|BenchmarkHTTPCoalesced64Clients
ENCODE_BENCH := BenchmarkEncodePredict30|BenchmarkEncodeEvaluate30x8

.PHONY: all build test vet race reach-check bench bench-smoke bench-check bench-baseline bench-fleet campaign-check recovery-check fleet-smoke loadgen-smoke profile clean

all: vet build test

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# reach-check fails when an internal package is reached by no command
# and no example: code no binary runs gets deleted, not kept compiling.
reach-check:
	@deps=$$(go list -deps ./cmd/... ./examples/...); missing=0; \
	for p in $$(go list ./internal/...); do \
		echo "$$deps" | grep -qx "$$p" || { echo "reach-check: $$p is imported by no command or example"; missing=1; }; \
	done; exit $$missing

race:
	go test -race ./internal/platform/... ./internal/pilgrim/... ./internal/sim/... ./internal/flow/... ./internal/campaign/... ./internal/store/... ./internal/shard/... ./internal/gateway/...

# recovery-check is the durability gate: WAL framing/torn-tail/corruption
# fault injection, registry warm-restart byte-identity (with and without
# a clean close, across compaction, under concurrent ingest), and the
# campaign-level restart drill (docs/OPERATIONS.md).
recovery-check:
	go test -count 1 ./internal/store/...
	go test -count 1 ./internal/pilgrim -run 'TestRegistryWarmRestart|TestRegistryRecoveryWithoutClose|TestRegistryRefusesForeignDataDir|TestRegistryConcurrentIngestAndCompaction'
	go test -count 1 ./internal/campaign -run 'TestCrashRecoveryDrill'

# campaign-check is the CI drill gate: every example campaign must
# validate (names resolve against the generated platform), the smoke
# campaign must replay with all assertions green, and the golden-report
# test catches any drift in the committed JSON/CSV reports
# (docs/CAMPAIGNS.md; refresh with UPDATE_CAMPAIGN_GOLDEN=1).
campaign-check:
	go run ./cmd/pilgrimsim validate examples/campaigns/*.yaml
	go run ./cmd/pilgrimsim run examples/campaigns/smoke.yaml
	go test ./internal/campaign -run 'TestExampleCampaignsGolden|TestReplayConcurrentWithIngestAndHTTP|TestCrashRecoveryDrill'

# bench runs the key and encoder benchmarks with -benchmem and writes
# BENCH_$(SHA).json (ns/op + B/op + allocs/op per benchmark) next to the
# raw output.
bench:
	go test -run '^$$' -bench '$(KEY_BENCH)' -benchmem -count 1 . | tee bench_$(SHA).out
	go test -run '^$$' -bench '$(ENCODE_BENCH)' -benchmem -count 1 ./internal/pilgrim | tee -a bench_$(SHA).out
	go run ./cmd/benchjson < bench_$(SHA).out > BENCH_$(SHA).json
	@echo wrote BENCH_$(SHA).json

# bench-smoke is the CI variant: every benchmark once, just to prove none
# of them crashes or asserts.
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# bench-check runs the key benchmarks and fails when any figure benchmark
# slowed by more than 25% against the committed baseline — and when the
# serving hot path re-grows allocations by more than 10% (allocation
# counts are nearly deterministic, so the tighter threshold holds). Only
# single-threaded benchmarks gate cross-run: the RunParallel benchmarks
# scale with the machine's core count and would make a cross-machine
# comparison meaningless. The third check is within THIS run: the
# pooled encoders must stay well ahead of encoding/json on the same
# predict and evaluate responses (the BenchmarkEncode* pooled and
# encoding_json sub-benchmarks differ only in the response writer).
bench-check: bench
	go run ./cmd/benchdiff -match 'BenchmarkFigure|BenchmarkPredict30Transfers|BenchmarkEvaluateDifferential30x8|BenchmarkForkVsCold' BENCH_baseline.json BENCH_$(SHA).json
	go run ./cmd/benchdiff -allocs-threshold 0.10 -match 'BenchmarkHTTPPredict30/hot|BenchmarkHTTPEvaluate30x8/hot' BENCH_baseline.json BENCH_$(SHA).json
	go run ./cmd/benchdiff -scale 'BenchmarkEncodePredict30/encoding_json,BenchmarkEncodePredict30/pooled,1.4;BenchmarkEncodeEvaluate30x8/encoding_json,BenchmarkEncodeEvaluate30x8/pooled,1.4' BENCH_$(SHA).json

# bench-baseline refreshes the committed baseline from a fresh run; commit
# the result whenever a PR intentionally shifts performance.
bench-baseline: bench
	cp BENCH_$(SHA).json BENCH_baseline.json
	@echo refreshed BENCH_baseline.json

# bench-fleet gates the sharded-fleet scaling claim: evaluate throughput
# through pilgrimgw must reach >= 1.7x at 2 workers and >= 3x at 4
# workers vs a single worker. The ratio is within ONE run (benchdiff
# -scale), never against the committed baseline — parallel speedup does
# not compare across machines — and it is only enforced where it is
# physically possible: with < 4 CPUs a CPU-bound simulation fleet cannot
# scale, so the benchmarks still run but the ratio check is skipped.
bench-fleet:
	go test -run '^$$' -bench 'BenchmarkGatewayEvaluateFleet' -benchtime 50x -count 1 . | tee bench_fleet_$(SHA).out
	go run ./cmd/benchjson < bench_fleet_$(SHA).out > BENCH_fleet_$(SHA).json
	@if [ "$$(nproc)" -ge 4 ]; then \
		go run ./cmd/benchdiff -scale 'BenchmarkGatewayEvaluateFleet/workers=1,BenchmarkGatewayEvaluateFleet/workers=2,1.7;BenchmarkGatewayEvaluateFleet/workers=1,BenchmarkGatewayEvaluateFleet/workers=4,3.0' BENCH_fleet_$(SHA).json; \
	else \
		echo "bench-fleet: $$(nproc) CPU(s) < 4 — scaling ratio check skipped (needs cores to parallelize)"; \
	fi

# fleet-smoke is the end-to-end fleet drill with real binaries: two
# pilgrimd shards plus a pilgrimgw, the smoke campaign replayed through
# the gateway, and the report byte-compared against the committed golden
# (docs/OPERATIONS.md, "Running a fleet").
fleet-smoke:
	./scripts/fleet_smoke.sh

# loadgen-smoke drives a real pilgrimd with cmd/pilgrimload for ~2s and
# asserts a sane serving path: nonzero QPS and zero errors
# (docs/OPERATIONS.md, "Load testing").
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# profile captures CPU and allocation profiles of the evaluate hot path
# (the differential and steady-state evaluate benchmarks exercise the
# overlay, classification, fork, and cache layers). Inspect with
# `go tool pprof profiles/evaluate_cpu.pprof`.
profile:
	mkdir -p profiles
	go test -run '^$$' -bench 'BenchmarkEvaluateDifferential30x8|BenchmarkEvaluate30x8' -benchtime 1000x -count 1 \
		-cpuprofile profiles/evaluate_cpu.pprof -memprofile profiles/evaluate_mem.pprof .
	@echo wrote profiles/evaluate_cpu.pprof profiles/evaluate_mem.pprof

clean:
	rm -f bench_*.out
	rm -rf profiles
	find . -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_baseline.json' -delete
