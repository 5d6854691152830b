#!/usr/bin/env bash
# Mutation ledger: each scripts/mutants/*.patch is a deliberate bug that
# named tests must catch. A patch opens with a header, then the diff:
#
#   Mutant: what the bug is
#   Package: ./internal/transport
#   Tests: TestA|TestB
#   Expect: killed            (or "survives", for the self-test mutant)
#
# For each patch this applies it to a temporary git worktree of the
# checkout's tracked files as they stand (HEAD plus staged and unstaged
# changes, through git stash create; untracked files are not included),
# runs only the named tests, and requires every one of them to fail. A
# patch that no longer applies, does not build, or leaves a named test
# passing fails the script. A patch marked "Expect: survives" must leave
# its tests passing: it shows the script can tell a survivor.
#
# Usage: scripts/mutants.sh [patch...]   (default: every patch)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
patches=()
for p in "$@"; do
	patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done
cd "$root"
if [ ${#patches[@]} -eq 0 ]; then
	patches=("$root"/scripts/mutants/*.patch)
fi

rev="$(git stash create)"
rev="${rev:-HEAD}"
tmp="$(mktemp -d)"
tree="$tmp/tree"
cleanup() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" "$rev"

status=0
for p in "${patches[@]}"; do
	name="$(basename "$p" .patch)"
	pkg="$(sed -n 's/^Package: //p' "$p" | head -n 1)"
	tests="$(sed -n 's/^Tests: //p' "$p" | head -n 1)"
	expect="$(sed -n 's/^Expect: //p' "$p" | head -n 1)"
	if [ -z "$pkg" ] || [ -z "$tests" ] || [ -z "$expect" ]; then
		echo "BAD      $name: header lacks Package, Tests or Expect"
		status=1
		continue
	fi
	git -C "$tree" reset --quiet --hard "$rev"
	git -C "$tree" clean --quiet -fd
	if ! git -C "$tree" apply "$p" 2>"$tmp/apply.err"; then
		echo "STALE    $name: no longer applies"
		sed 's/^/    /' "$tmp/apply.err"
		status=1
		continue
	fi
	out="$(cd "$tree" && go test -count=1 -v -timeout 300s -run "^($tests)\$" "$pkg" 2>&1)" || true
	names=(${tests//|/ })
	passed=() failed=()
	for t in "${names[@]}"; do
		if grep -q -- "^--- FAIL: $t " <<<"$out"; then
			failed+=("$t")
		elif grep -q -- "^--- PASS: $t " <<<"$out"; then
			passed+=("$t")
		fi
	done
	if [ $((${#passed[@]} + ${#failed[@]})) -ne ${#names[@]} ]; then
		echo "BROKEN   $name: not every named test ran"
		tail -n 20 <<<"$out" | sed 's/^/    /'
		status=1
		continue
	fi
	case "$expect" in
	killed)
		if [ ${#passed[@]} -eq 0 ]; then
			echo "killed   $name (${failed[*]})"
		else
			echo "SURVIVED $name: ${passed[*]} passed"
			status=1
		fi
		;;
	survives)
		if [ ${#failed[@]} -eq 0 ]; then
			echo "survived $name (as expected)"
		else
			echo "KILLED   $name: ${failed[*]} failed, expected to survive"
			status=1
		fi
		;;
	*)
		echo "BAD      $name: Expect is $expect, want killed or survives"
		status=1
		;;
	esac
done
exit "$status"
