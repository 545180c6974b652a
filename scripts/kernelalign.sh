#!/bin/sh
# Usage: sh scripts/kernelalign.sh OLD_BIN NEW_BIN
#
# Compares the 64-byte alignment of the hot-path packages' code in two
# builds of the same program (for example the bench binary of two
# checkouts, each at .bench_build/bench). Prints every text symbol of
# asyncmg/internal/{sparse,op,smoother,vec,engine,krylov,async} whose
# address mod 64 differs between the two, as "moved NAME OLD NEW", and
# every such symbol linked into only one of them, as "only-old NAME" or
# "only-new NAME". No output means every one sits at the same cache-line
# offset. Needs only the Go toolchain.
set -e
if [ $# -ne 2 ]; then
	echo "usage: sh scripts/kernelalign.sh OLD_BIN NEW_BIN" >&2
	exit 2
fi
syms() {
	go tool nm -n -size "$1" | awk -v tag="$2" '
	($3 == "T" || $3 == "t") && $4 ~ /^asyncmg\/internal\/(sparse|op|smoother|vec|engine|krylov|async)\./ {
		a = tolower(substr($1, length($1) - 1))
		print tag, $4, (index("0123456789abcdef", substr(a, 1, 1)) - 1) * 16 % 64 + index("0123456789abcdef", substr(a, 2, 1)) - 1
	}'
}
{ syms "$1" old; syms "$2" new; } | awk '
$1 == "old" { old[$2] = $3 }
$1 == "new" { new[$2] = $3 }
END {
	for (s in old) {
		if (!(s in new)) print "only-old", s
		else if (old[s] != new[s]) print "moved", s, old[s], new[s]
	}
	for (s in new) if (!(s in old)) print "only-new", s
}' | sort -k1,1 -k2
