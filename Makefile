GO ?= go

.PHONY: build test lint perfgate check bench benchreport

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Project-native static analysis: the simlint suite (see internal/lint)
# enforcing the pipeline's context-plumbing, span-pairing,
# error-wrapping, float-comparison, phase-order, coordinate-frame, and
# interprocedural hot-path/lock-scope invariants.
lint:
	$(GO) run ./cmd/simlint ./...

# Compiler-fact performance gate: escape-analysis and bounds-check
# counts ratcheted per package against .perfgate-baseline.json, plus
# the //lint:noescape zero-escape contract on the hot kernels. After a
# deliberate improvement, tighten the register with
# `go run ./cmd/perfgate -update`.
perfgate:
	$(GO) run ./cmd/perfgate

# Full gate: gofmt + build + vet + simlint + perfgate + tests + fuzz
# smoke, then the whole module under -race (short mode).
check:
	sh scripts/check.sh

# Benchmarks: the Go micro-benchmarks, a pipeline-level run that writes
# per-stage latency quantiles (from the obs histograms) to
# BENCH_obs.json, the streaming update-vs-cold comparison that writes
# BENCH_incremental.json (and fails if the incremental re-solve loses
# its speedup), the cross-session artifact-cache comparison that writes
# BENCH_cache.json (and fails if warm sessions lose their speedup or
# their bit-identity to cold), then the trajectory report comparing the
# fresh numbers against the previously committed ones
# (BENCH_REPORT.md/.json).
bench:
	$(GO) test -bench=. -benchmem -short ./...
	$(GO) run ./cmd/benchobs -runs 5 -size 32 -out BENCH_obs.json
	$(GO) run ./cmd/benchincr -size 64 -updates 4 -out BENCH_incremental.json
	$(GO) run ./cmd/benchcache -size 48 -rounds 3 -out BENCH_cache.json
	$(GO) run ./cmd/benchreport -out BENCH_REPORT

# Perf-trajectory gate alone: validate the committed BENCH artifacts'
# invariants and compare them against the previous commit's values.
benchreport:
	$(GO) run ./cmd/benchreport -check
