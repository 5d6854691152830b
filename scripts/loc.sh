#!/bin/sh
# Per-package Go line counts for internal/* and cmd/*, so "net line count
# per PR" (ROADMAP aim 2) is one command: run it at the parent commit and
# at the change and diff the two tables.
#
# Usage:
#   scripts/loc.sh [repo-root]
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

printf '%-28s %8s %9s %8s\n' package code non-test test
tc=0 tn=0 tt=0
for dir in internal/* cmd/*; do
    [ -d "$dir" ] || continue
    src="$(find "$dir" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort)"
    tst="$(find "$dir" -name '*_test.go' ! -path '*/testdata/*' | sort)"
    # shellcheck disable=SC2086 # word-splitting the file lists is the point
    c="$(count code $src)" n="$(count all $src)" t="$(count all $tst)"
    printf '%-28s %8d %9d %8d\n' "$dir" "$c" "$n" "$t"
    tc=$((tc + c)) tn=$((tn + n)) tt=$((tt + t))
done
printf '%-28s %8d %9d %8d\n' total "$tc" "$tn" "$tt"
