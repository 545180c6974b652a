#!/bin/sh
# Regenerate every table and figure of the paper's evaluation, and the
# repository's own fault, staleness and message-volume sweeps, into
# results/: one run of the whole experiment registry. RUNS sets the runs
# per measurement of every entry that averages runs; the other knobs keep
# each entry's scaled defaults (see `go run ./cmd/mgbench -h`).
set -eu
cd "$(dirname "$0")/.."
RUNS="${RUNS:-5}"

go run ./cmd/mgbench -exp all -runs "$RUNS" -out results

{
	echo "ok"
	go version
	date -u "+%Y-%m-%dT%H:%M:%SZ"
} > results/status.txt
echo "All outputs written to results/."
