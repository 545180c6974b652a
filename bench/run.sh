#!/bin/sh
# What BENCHMARK.json runs, from the root of a checkout: builds the bench
# binary (the module in bench/, which imports the repository's packages) when
# a source file is newer than it and runs it with the given arguments. The Go
# build cache, GOPATH and temporary files are kept inside the checkout
# (.bench_build/), so a run reads and writes nothing outside it.
set -e
build="$(pwd)/.bench_build"
bin="$build/bench"
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print | head -1)" ]; then
	mkdir -p "$build/tmp"
	(cd bench && GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false \
		go build -o "$bin" .)
fi
exec "$bin" "$@"
