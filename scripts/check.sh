#!/bin/sh
# Repository check: formatting, build + vet, the project-native simlint
# static-analysis suite, the perfgate compiler-fact gate (escape and
# bounds-check ratchet plus the //lint:noescape kernel contract), the
# full test suite, the benchmark module's tests, fuzz smoke runs, and
# the whole module under the race detector (short mode).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
# internal/lint/testdata holds analyzer fixtures that are deliberately
# not gofmt-clean (formatting_test.go pins one); the go tool already
# ignores testdata, so the formatting gate must too.
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== simlint ./..."
go run ./cmd/simlint ./...
echo "== perfgate"
go run ./cmd/perfgate
echo "== bench -check"
go run ./cmd/bench -check > /dev/null
echo "== go test ./..."
go test ./...
echo "== (cd clinbench && go test .)"
# clinbench is a nested module that the root ./... pattern skips.
(cd clinbench && go test .)
echo "== go test -fuzz (10s per target, list derived from sources)"
./scripts/fuzz_smoke.sh
echo "== go test -race -short ./..."
go test -race -short ./...
echo "== OK"
