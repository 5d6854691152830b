#!/usr/bin/env bash
# The command BENCHMARK.json names: build ethperf from the checkout's
# source, then run it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the binary, Go's build cache and its per-user state (HOME
# is redirected for the go tool only), and the run's rendezvous files.
# The build is outside every timed region; it is skipped while the binary
# is newer than every Go source file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/ethperf"
cd "$root"

if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: no go.mod in $root: the program's source is not here" >&2
	exit 1
fi

if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod -o -name golden.json \) -newer "$bin" -print -quit)" ]; then
	# The go tool starts a detached telemetry child that outlives it unless
	# the per-user mode file says off; GOTELEMETRY cannot be set by env.
	mkdir -p "$build/home/.config/go/telemetry"
	echo off >"$build/home/.config/go/telemetry/mode"
	HOME="$build/home" XDG_CONFIG_HOME= XDG_CACHE_HOME= \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
		GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$bin" ./bench/ethperf
fi

exec "$bin" -scratch "$build" "$@"
