#!/usr/bin/env bash
# Extended verification: build, vet, formatting, full tests, the race
# detector over every package, the core-count-sensitive engine tests at
# several GOMAXPROCS, one iteration of every in-package microbenchmark, and
# the tests of the benchmark's own module.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== unidblint (lockcheck errdrop exhaustive determinism txnend syncbarrier cowsafe + whole-program lockorder snapshotpure)"
if [ -n "${UNIDBLINT_JSON:-}" ]; then
  # Emit the machine-readable listing too (CI uploads it as an artifact).
  mkdir -p "$(dirname "$UNIDBLINT_JSON")"
  go run ./cmd/unidblint -json ./... | tee "$UNIDBLINT_JSON"
else
  go run ./cmd/unidblint ./...
fi

echo "== go test"
go test ./...

echo "== go test -race (every package)"
go test -race ./...

echo "== go test -cpu 1,2,4 -count=20 (deadlock retry, scan contract, snapshot-read histories, shared scanned documents)"
go test -cpu 1,2,4 -count=20 -run 'TestUpdateRetriesDeadlock|Scan' ./internal/engine/...
go test -cpu 1,2,4 -count=20 -run 'TestSnapshotReadsSeeCommitOrderPrefix|TestScannedDocumentsStayShared' ./internal/core

echo "== microbenchmarks, one iteration each (the index-taxonomy tables)"
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "== go test (bench/, the nested module tier-1 skips)"
(cd bench && go test ./...)

echo "== fuzz smoke (parsers, record decoder, key decoder, column-batch reader, value JSON rendering, parameter values through the executor, GIN and full-text indexes vs scans, B+tree and its snapshots vs a sorted map)"
go test -run=^$ -fuzz=FuzzParseMMQL -fuzztime=5s ./internal/query
go test -run=^$ -fuzz=FuzzParseMSQL -fuzztime=5s ./internal/query
go test -run=^$ -fuzz=FuzzDecode -fuzztime=5s ./internal/binenc
go test -run=^$ -fuzz=FuzzKeyDecode -fuzztime=5s ./internal/keyenc
go test -run=^$ -fuzz=FuzzEachBatch -fuzztime=5s ./internal/colstore
go test -run=^$ -fuzz=FuzzValueJSON -fuzztime=5s ./internal/mmvalue
go test -run=^$ -fuzz=FuzzQueryParams -fuzztime=5s ./internal/core
go test -run=^$ -fuzz=FuzzGINContains -fuzztime=5s ./internal/core
go test -run=^$ -fuzz=FuzzTree -fuzztime=5s ./internal/btree

echo "verify: OK"
