#!/bin/sh
# Usage: sh scripts/reachable.sh
#
# Fails (exit 1) when the module declares a function that none of its
# binaries links: the commands, the examples and the benchmark program
# are built with inlining off, and every function declared outside
# _test.go files, main packages and *test helper packages must appear in
# their symbol tables or in scripts/reachable.allow, with a reason there.
# Prints each offender as "importpath.[Type.]Name  file:line". Needs only
# the Go toolchain.
set -e
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)
for b in "$tmp"/bin/*; do go tool nm "$b"; done >"$tmp/nm"
go run ./scripts/reachable . "$tmp/nm" scripts/reachable.allow
