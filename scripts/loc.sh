#!/bin/sh
# Go line counts for the whole module, so "net line count per PR"
# (ROADMAP aim 2) is one command: run it at the parent commit and at the
# change and diff the two tables.
#
# Usage:
#   scripts/loc.sh [repo-root]
#
# Rows: one per package directory under internal/ and cmd/, one per
# directory under bench/, one for examples/ (all its programs), and one
# for the root package's files. Together they hold every .go file of the
# module outside testdata, so moving code between directories cannot
# shrink the total.
#
# Columns: "code" is non-test lines that are neither blank nor a //
# comment (the figure a simplification PR is judged by — trimming
# comments does not move it), "non-test" and "test" are plain wc -l.
# Plain sh + grep + wc; informational, never fails a gate.
set -eu
cd "${1:-$(dirname "$0")/..}"

# count FILTER FILE...: lines of the files passing FILTER (code|all).
count() {
    filter="$1"
    shift
    [ $# -gt 0 ] || { echo 0; return; }
    if [ "$filter" = code ]; then
        cat "$@" | grep -cv '^[[:space:]]*\(//.*\)\{0,1\}$' || true
    else
        cat "$@" | wc -l
    fi
}

tc=0 tn=0 tt=0
# row NAME DIR DEPTH: count the Go files under DIR down to DEPTH levels.
row() {
    src="$(find "$2" -maxdepth "$3" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort)"
    tst="$(find "$2" -maxdepth "$3" -name '*_test.go' ! -path '*/testdata/*' | sort)"
    # shellcheck disable=SC2086 # word-splitting the file lists is the point
    c="$(count code $src)" n="$(count all $src)" t="$(count all $tst)"
    printf '%-28s %8d %9d %8d\n' "$1" "$c" "$n" "$t"
    tc=$((tc + c)) tn=$((tn + n)) tt=$((tt + t))
}

printf '%-28s %8s %9s %8s\n' package code non-test test
for dir in internal/* cmd/* bench/* examples; do
    [ -d "$dir" ] || continue
    row "$dir" "$dir" 100
done
row "(root)" . 1
printf '%-28s %8d %9d %8d\n' total "$tc" "$tn" "$tt"
