#!/usr/bin/env bash
# Alternating before/after pairs of the pipeline benchmark: the parent
# revision and this checkout each run their own, unchanged bench/run.sh on
# the same seeds, taking turns at going first, so drift on the machine
# lands on both sides alike.
#
# Usage:
#   scripts/pairs.sh --pairs N --parent REV [--workload W] [--trace 0|1]
#
# REV is checked out (detached) as a git worktree under .bench_build/,
# which bench/run.sh already keeps out of its rebuild check and which
# .gitignore covers; the worktree is removed again on exit. Seeds run
# 1..N; odd seeds run the parent first, even seeds this checkout first.
# Without --workload every workload BENCHMARK.json lists runs, seed by
# seed. --trace defaults to 0.
#
# Output: one JSON line per run on stdout,
#   {"workload":W,"seed":S,"side":"parent"|"change","first":"parent"|"change",
#    "detail":<run.sh's detail line>,"result":<run.sh's result line>}
# and progress on stderr. Each side builds its own ethperf inside its own
# tree the first time it runs, outside every timed region.
set -euo pipefail

usage() {
	echo "usage: scripts/pairs.sh --pairs N --parent REV [--workload W] [--trace 0|1]" >&2
	exit 2
}

pairs="" rev="" workload="" trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs="${2:-}"; shift 2 ;;
	--parent) rev="${2:-}"; shift 2 ;;
	--workload) workload="${2:-}"; shift 2 ;;
	--trace) trace="${2:-}"; shift 2 ;;
	*) usage ;;
	esac
done
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac
case "$trace" in 0 | 1) ;; *) usage ;; esac
[ -n "$rev" ] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
	echo "scripts/pairs.sh: $rev is not a commit" >&2
	exit 2
}
if [ -n "$workload" ]; then
	workloads="$workload"
else
	workloads="$(sed -n 's/.*{"name": *"\([a-z0-9-]*\)", *"why".*/\1/p' BENCHMARK.json)"
fi

tree="$root/.bench_build/parent-$sha"
cleanup() { git -C "$root" worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT
cleanup
mkdir -p "$root/.bench_build"
git worktree add --detach --quiet "$tree" "$sha"

# run SIDE FIRST W S: one run of SIDE's bench/run.sh, printed as one line.
run() {
	local side="$1" first="$2" w="$3" s="$4" dir="$root" out
	[ "$side" = parent ] && dir="$tree"
	echo "pairs: $w seed $s $side" >&2
	out="$(bash "$dir/bench/run.sh" --workload "$w" --seed "$s" --trace "$trace")"
	printf '{"workload":"%s","seed":%d,"side":"%s","first":"%s","detail":%s,"result":%s}\n' \
		"$w" "$s" "$side" "$first" \
		"$(printf '%s\n' "$out" | tail -n 2 | head -n 1)" \
		"$(printf '%s\n' "$out" | tail -n 1)"
}

for s in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if [ $((s % 2)) -eq 1 ]; then
			run parent parent "$w" "$s"
			run change parent "$w" "$s"
		else
			run change change "$w" "$s"
			run parent change "$w" "$s"
		fi
	done
done
