GO ?= go

.PHONY: build test lint perfgate check bench benchcheck

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

# Benchmarks: cmd/bench measures the named workloads of its table
# (pipeline, incremental, cache) at their fixed shapes, writes their
# records to BENCH.json and renders BENCH_REPORT.md; it fails on a
# violated table invariant or on a tracked metric that regressed
# against HEAD's record of the same shape. Then the Go
# micro-benchmarks, whose package tests include cmd/bench's checks of
# the fresh BENCH.json.
bench:
	$(GO) run ./cmd/bench
	$(GO) test -bench=. -benchmem -short ./...

# Perf-trajectory gate alone: check the committed BENCH.json against
# the table's invariants and compare it with HEAD's records.
benchcheck:
	$(GO) run ./cmd/bench -check
