#!/bin/sh
# Regenerate every table and figure of the paper's evaluation into
# results/. Scaled defaults finish in minutes on one core; pass larger
# -size/-runs/-threads through the environment variables below for
# paper-scale runs on real hardware.
set -eu
cd "$(dirname "$0")/.."
RUNS="${RUNS:-5}"
mkdir -p results

echo "== Figures 1-2 (Section III model simulations) =="
go run ./cmd/mgsim -fig 1 -runs "$RUNS" | tee results/fig1.txt
go run ./cmd/mgsim -fig 2 -runs "$RUNS" | tee results/fig2.txt
go run ./cmd/mgsim -fault | tee results/fault.txt

echo "== Figures 4-6 and Table I (parallel solvers) =="
go run ./cmd/mgbench -fig 4   | tee results/fig4.txt
go run ./cmd/mgbench -fig 5   | tee results/fig5.txt
go run ./cmd/mgbench -table 1 | tee results/table1.txt
go run ./cmd/mgbench -fig 6   | tee results/fig6.txt

{
	echo "ok"
	go version
	date -u "+%Y-%m-%dT%H:%M:%SZ"
} > results/status.txt
echo "All outputs written to results/."
