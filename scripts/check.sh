#!/bin/sh
# check.sh - the repo's full verification gate: build, formatting,
# go vet, skelvet static analysis, and the race-enabled test suite.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# skelbench is its own module, so ./... above, skelvet -self and the
# test run below do not reach it.
echo "==> go vet (skelbench module)"
(cd skelbench && go vet ./...)

echo "==> go test (skelbench module)"
(cd skelbench && go test ./...)

echo "==> skelvet -self"
go run ./cmd/skelvet -self

echo "==> go test -race ./..."
go test -race ./...

echo "OK"
