#!/bin/sh
# Regenerate BENCH_setup.json, the setup-phase benchmark baseline enforced
# by CI (benchguard fails the build when allocs/op regresses above it, or
# when a fine row at n=32 costs too many times what it costs at n=16).
set -eu
cd "$(dirname "$0")/.."
go test -run '^$' -bench '^BenchmarkSetup$' -benchtime 5x -count 3 . |
	go run ./scripts/benchguard -write BENCH_setup.json
