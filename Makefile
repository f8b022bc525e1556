GO ?= go

.PHONY: build vet lint test race race-engine bench bench-batch bench-datasets bench-check fleet-smoke serve tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project lint engine (internal/lint via cmd/lint): the full
# interprocedural rule set — determinism, floatcompare, errdrop,
# httpwrite, lockdiscipline, ctxflow, goroutinelife, metriclabel — over
# the module call graph, with the committed baseline applied. Non-zero
# exit on any non-baselined diagnostic; see DESIGN §8 for the contracts
# and docs/operations.md for reading findings.
lint:
	$(GO) run ./cmd/lint -baseline lint-baseline.json ./...

test:
	$(GO) test ./...

# Whole-module race detection, not just hand-picked packages — the
# lockdiscipline analyzer catches static mistakes, the race detector
# catches the dynamic ones.
race:
	$(GO) test -race ./...

# The engine executor (singleflight, breakers, batch pool) is the
# concurrency hot spot; race it first, with caching disabled, so a
# regression there fails fast before the whole-module pass.
race-engine:
	$(GO) test -race -count=1 ./internal/engine/... ./internal/server/...

bench: bench-datasets
	$(GO) test -bench=. -benchmem ./...

# The batch worker pool's scaling numbers (cold vs warm, 1 vs N workers).
bench-batch:
	$(GO) test -bench=BenchmarkBatchParallel -benchmem ./internal/engine/

# Dataset-scoped cold/warm serving latencies, the NNMF core (cold vs
# serial factorize), batch worker scaling, and fleet local vs
# forwarded serving, snapshotted to BENCH_datasets.json at the repo
# root so the perf trajectory accumulates across commits (ROADMAP
# item 4). Order matters: the engine run rewrites the snapshot
# wholesale, the server run merges its fleet/* scenarios into it.
bench-datasets:
	BENCH_JSON=$(CURDIR)/BENCH_datasets.json $(GO) test -bench='BenchmarkDatasetServing|BenchmarkNNMFCore|BenchmarkBatchScaling' -run '^$$' -benchmem ./internal/engine/
	BENCH_JSON=$(CURDIR)/BENCH_datasets.json $(GO) test -bench='BenchmarkFleetServing' -run '^$$' -benchmem ./internal/server/

# Perf regression gate (CI): re-run the dataset benchmarks into a
# scratch snapshot and compare the compute-bound scenarios against the
# committed BENCH_datasets.json, failing past 3x — plus the
# current-snapshot fleet forwarding gate (forwarded <= 8x local).
# The committed baseline is only rewritten by an explicit
# `make bench-datasets`.
bench-check:
	BENCH_JSON=$(CURDIR)/BENCH_current.json $(GO) test -bench='BenchmarkDatasetServing|BenchmarkNNMFCore|BenchmarkBatchScaling' -run '^$$' -benchmem ./internal/engine/
	BENCH_JSON=$(CURDIR)/BENCH_current.json $(GO) test -bench='BenchmarkFleetServing' -run '^$$' -benchmem ./internal/server/
	$(GO) run ./cmd/benchcheck -baseline $(CURDIR)/BENCH_datasets.json -current $(CURDIR)/BENCH_current.json

# Three real cmd/serve replicas on loopback ports: proves the fleet
# wiring end to end outside the test harness — cross-replica
# cache-hit-after-forward and csm_fleet_forwards_total movement.
fleet-smoke:
	bash scripts/fleet_smoke.sh

serve:
	$(GO) run ./cmd/serve

# Everything the repo's tier-1 gate runs, plus vet, lint, and race.
tier1: build vet lint test race-engine race
