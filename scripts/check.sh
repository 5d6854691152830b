#!/bin/sh
# Repo-wide check: gofmt, vet, build, race-enabled tests (ethlint's gate
# among them: internal/lint's TestSelfClean), and short fuzz passes over
# every parser of untrusted input. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "not gofmt-formatted (run gofmt -w):"
    echo "$unformatted"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# Most allocation gates skip themselves under -race (the race runtime
# allocates), so run them again without it, module-wide and by name — a
# hot-path allocation regression must fail CI, not hide behind the race
# build, and a new gate needs no list to join as long as its name matches
# Alloc. No test asserts pointer identity through a pool any more: memory
# the hub, the proxies, the renderers and the compositors own is reused
# deterministically, so their ownership tests (…Releases…) run in the
# -race pass above and need no second run here.
echo "== go test -run Alloc ./..."
go test -run Alloc ./...

# The rasterizer draws on two paths: one worker draws each primitive
# once over the whole frame, more workers bin by band. geom and render
# draw with GOMAXPROCS workers, so at one GOMAXPROCS only their tests
# reach the first path and at two only the second: run them at both.
# An isosurface's vertices are shaded on the same split: on one worker
# at a triangle's first pixel write, on more all up front.
echo "== go test -cpu 1,2 ./internal/raster ./internal/geom ./internal/render"
go test -cpu 1,2 ./internal/raster/ ./internal/geom/ ./internal/render/

# Supervision chaos: run the process-level suite (subprocess SIGKILL,
# watchdog teardown, panic restart) by name so a rename that silently
# drops a chaos test from the default run fails loudly here.
echo "== go test -race -run 'TestProc|TestSupervised' ./internal/supervise ./internal/coupling"
go test -race -run 'TestProc|TestSupervised' ./internal/supervise/ ./internal/coupling/

# Codec chaos: the temporal-codec recovery scenarios (corrupt delta
# frames, keyframe resync after reconnect/restart, cross-codec
# bit-exactness) by name, for the same reason.
echo "== go test -race -run 'TestChaosCodec|TestChaos.*Delta|TestProcSIGKILLDeltaResync' ./internal/coupling ./internal/supervise"
go test -race -run 'TestChaosCodec|TestChaos.*Delta|TestProcSIGKILLDeltaResync' ./internal/coupling/ ./internal/supervise/

# Hub chaos: the multi-viewer broadcast scenarios (slow subscriber
# never perturbs the publish cadence, kill+cursor-resume is
# byte-identical with a keyframe downgrade, steering replays
# deterministically) by name, race-enabled, for the same reason, with
# FrameSig's concurrent callers, who share its one chunk buffer.
echo "== go test -race -run 'TestHubChaos|TestFrameSigConcurrent' ./internal/hub"
go test -race -run 'TestHubChaos|TestFrameSigConcurrent' ./internal/hub/

# Live telemetry plane: boot a real run with -obs and validate the
# exposition end to end with ethtop -once (which fails unless /metrics
# parses as Prometheus text and /healthz answers) — no curl, no jq.
echo "== ethrun -obs + ethtop -once"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; [ -z "${runpid:-}" ] || kill "$runpid" 2>/dev/null || true' EXIT
go build -o "$tmp/ethrun" ./cmd/ethrun
go build -o "$tmp/ethtop" ./cmd/ethtop
"$tmp/ethrun" -workload hacc -particles 20000 -steps 10 -images 2 \
    -width 128 -height 128 -obs 127.0.0.1:0 >"$tmp/obs.log" 2>&1 &
runpid=$!
url=""
i=0
while [ $i -lt 100 ]; do
    url="$(sed -n 's|^obs: serving \(http://[^/]*\)/metrics$|\1|p' "$tmp/obs.log")"
    [ -n "$url" ] && break
    if ! kill -0 "$runpid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "obs endpoint never came up:"; cat "$tmp/obs.log"; exit 1
fi
"$tmp/ethtop" -once "$url"
wait "$runpid"
runpid=""

echo "== go test -fuzz=FuzzReadVTK -fuzztime=10s ./internal/vtkio"
go test -run='^$' -fuzz=FuzzReadVTK -fuzztime=10s ./internal/vtkio/

echo "== go test -fuzz=FuzzDecodeMatchesReference -fuzztime=10s ./internal/vtkio"
go test -run='^$' -fuzz=FuzzDecodeMatchesReference -fuzztime=10s ./internal/vtkio/

echo "== go test -fuzz=FuzzFrameFlip -fuzztime=10s ./internal/transport"
go test -run='^$' -fuzz=FuzzFrameFlip -fuzztime=10s ./internal/transport/

echo "== go test -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/transport"
go test -run='^$' -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/transport/

echo "== go test -fuzz=FuzzInflate -fuzztime=10s ./internal/transport"
go test -run='^$' -fuzz=FuzzInflate -fuzztime=10s ./internal/transport/

echo "== go test -fuzz=FuzzDeflate -fuzztime=10s ./internal/transport"
go test -run='^$' -fuzz=FuzzDeflate -fuzztime=10s ./internal/transport/

echo "== go test -fuzz=FuzzSteeringMessage -fuzztime=10s ./internal/hub"
go test -run='^$' -fuzz=FuzzSteeringMessage -fuzztime=10s ./internal/hub/

echo "== go test -fuzz=FuzzFaultsParse -fuzztime=10s ./internal/faults"
go test -run='^$' -fuzz=FuzzFaultsParse -fuzztime=10s ./internal/faults/

echo "== go test -fuzz=FuzzLayoutParse -fuzztime=10s ./internal/layout"
go test -run='^$' -fuzz=FuzzLayoutParse -fuzztime=10s ./internal/layout/

echo "== go test -fuzz=FuzzJournalRead -fuzztime=10s ./internal/journal"
go test -run='^$' -fuzz=FuzzJournalRead -fuzztime=10s ./internal/journal/

echo "== go test -fuzz=FuzzFollowerDrain -fuzztime=10s ./internal/journal"
go test -run='^$' -fuzz=FuzzFollowerDrain -fuzztime=10s ./internal/journal/

echo "== go test -fuzz=FuzzParseExposition -fuzztime=10s ./internal/obs"
go test -run='^$' -fuzz=FuzzParseExposition -fuzztime=10s ./internal/obs/

echo "== go test -fuzz=FuzzLoadSweep -fuzztime=10s ./internal/fleet"
go test -run='^$' -fuzz=FuzzLoadSweep -fuzztime=10s ./internal/fleet/

echo "== go test -fuzz=FuzzReplay -fuzztime=10s ./internal/fleet"
go test -run='^$' -fuzz=FuzzReplay -fuzztime=10s ./internal/fleet/

echo "== go test -fuzz=FuzzStream -fuzztime=10s ./internal/cosmo"
go test -run='^$' -fuzz=FuzzStream -fuzztime=10s ./internal/cosmo/

echo "== go test -fuzz=FuzzPacketsMatchReference -fuzztime=10s ./internal/rt"
go test -run='^$' -fuzz=FuzzPacketsMatchReference -fuzztime=10s ./internal/rt/

echo "== go test -fuzz=FuzzTrianglesMatchReference -fuzztime=10s ./internal/raster"
go test -run='^$' -fuzz=FuzzTrianglesMatchReference -fuzztime=10s ./internal/raster/

echo "== go test -fuzz=FuzzContourMatchesReference -fuzztime=10s ./internal/geom"
go test -run='^$' -fuzz=FuzzContourMatchesReference -fuzztime=10s ./internal/geom/

# Multi-viewer broadcast smoke: real sim+viz+hub processes, three
# ethwatch viewers over real sockets, one steered, one SIGKILLed and
# resumed from its cursor, then a journal audit via ethinfo.
echo "== scripts/hub_smoke.sh"
./scripts/hub_smoke.sh

# Fleet chaos: run the scheduler suites (worker SIGKILL mid-write,
# scheduler SIGKILL + resume, torn-tail ingestion) by name, race-enabled,
# so a rename that drops one from the default run fails loudly here.
echo "== go test -race -run 'TestFleet|TestCollector|TestBatcher' ./internal/fleet ./internal/ingest"
go test -race -run 'TestFleet|TestCollector|TestBatcher' ./internal/fleet/ ./internal/ingest/

# Fleet smoke: real ethserve + ethbench worker subprocesses, one worker
# SIGKILLed mid-attempt, the scheduler SIGKILLed mid-sweep and resumed,
# then an ethinfo conservation-law audit of the merged journal.
echo "== scripts/fleet_smoke.sh"
./scripts/fleet_smoke.sh

# Pipeline benchmark smoke: ethperf's four workloads at smoke sizes, each
# emitting every metric BENCHMARK.json names with no failed operation and
# a ledger covering >= 95 % of the step. Run by name and without -race,
# which lowers that floor to 85 %.
echo "== go test -run TestQuickSmoke ./bench/ethperf"
go test -run TestQuickSmoke ./bench/ethperf/

# Informational: the per-package line table a PR reports its net line
# count from. Never fails the gate.
echo "== scripts/loc.sh"
./scripts/loc.sh || true

echo "ok"
