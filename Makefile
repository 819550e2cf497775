# TaskVine build and verification targets.
#
# `make ci` is the gate the CI workflow runs: build, vet, vinelint, the
# full test suite under the race detector, and a fuzz smoke pass over the
# protocol codec. Each target is also usable on its own during
# development.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test lint vet race fuzz chaos bench bench-diff cover cover-update ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the single static-analysis gate: go vet plus the
# domain-specific analyzer suite (tools/vinelint) — simulator determinism,
# lock discipline and ordering, wire-protocol completeness, finalization
# error handling, event-loop blocking, goroutine lifecycles, and metric
# parity. Diagnostics are also written to VINELINT.json for CI
# annotations; set LINTFLAGS="-format github" to emit inline workflow
# annotations.
LINTFLAGS ?=
lint:
	$(GO) vet ./...
	$(GO) run ./tools/vinelint -json-file VINELINT.json $(LINTFLAGS) ./...

vet:
	$(GO) vet ./...

# race runs every test twice under the race detector; -count=2 defeats
# test caching and shakes out order-dependent schedules.
race:
	$(GO) test -race -count=2 ./...

# fuzz smoke-tests the protocol codec — both framings — from the seeded
# corpus for a short, CI-friendly interval per target.
fuzz:
	$(GO) test ./internal/protocol -run '^$$' -fuzz FuzzRecv -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol -run '^$$' -fuzz FuzzBinaryDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime $(FUZZTIME)

# chaos runs the seeded fault-injection suite (sim, core, worker, batch)
# under the race detector for two fixed seeds. Fixed seeds keep failures
# reproducible: a red chaos run replays bit-for-bit with the same seed.
chaos:
	VINE_CHAOS_SEED=1 $(GO) test -race -count=1 -run Chaos ./...
	VINE_CHAOS_SEED=2 $(GO) test -race -count=1 -run Chaos ./...

# cover measures per-package statement coverage and gates it against the
# floors in COVERAGE.json (tools/covercheck). The full per-package report
# lands in COVERAGE_REPORT.json — a non-gating artifact CI uploads so
# coverage trends stay visible — while the floors (internal/core,
# internal/sim) fail the build on regression. cover-update additionally
# refreshes the recorded "measured" section of COVERAGE.json after an
# intentional change.
cover:
	$(GO) test -cover ./... > COVER.out || { cat COVER.out; rm -f COVER.out; exit 1; }
	cat COVER.out
	$(GO) run ./tools/covercheck -ratchet COVERAGE.json -report COVERAGE_REPORT.json < COVER.out
	rm -f COVER.out

cover-update:
	$(GO) test -cover ./... > COVER.out || { cat COVER.out; rm -f COVER.out; exit 1; }
	$(GO) run ./tools/covercheck -ratchet COVERAGE.json -report COVERAGE_REPORT.json -update < COVER.out
	rm -f COVER.out

# bench runs the dispatch, scheduler-pass, sharded-dispatch, protocol, and
# hashing benchmarks with -count=5 (enough repetitions for benchstat-style
# comparison), plus one full 50k-task simulated workflow with its bytes and
# allocations per run, and records the raw test2json stream in
# BENCH_core.json. CI uploads the file as a non-gating artifact so perf
# drift is visible across commits without failing builds.
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem -count=5 \
		./internal/core ./internal/shard ./internal/protocol ./internal/hashing > BENCH_core.json
	$(GO) test -json -run '^$$' -bench 'SimTopEFT50k|SimTransferBound' -benchtime 1x -count=1 -benchmem \
		./internal/workloads >> BENCH_core.json

# bench-diff re-runs the benchmark suite into BENCH_new.json and prints a
# benchstat-style old-vs-new comparison against the committed
# BENCH_core.json baseline (tools/benchdiff). Informational only: CI
# uploads BENCH_DIFF.txt as a non-gating artifact.
bench-diff:
	$(GO) test -json -run '^$$' -bench . -benchmem -count=5 \
		./internal/core ./internal/shard ./internal/protocol ./internal/hashing > BENCH_new.json
	$(GO) test -json -run '^$$' -bench 'SimTopEFT50k|SimTransferBound' -benchtime 1x -count=1 -benchmem \
		./internal/workloads >> BENCH_new.json
	$(GO) run ./tools/benchdiff BENCH_core.json BENCH_new.json | tee BENCH_DIFF.txt

ci: build lint race chaos fuzz cover
