#!/bin/sh
# End-to-end smoke for the multi-viewer broadcast hub: boot a real
# sim+viz pair with -serve (its in-situ connection opening with the viz
# proxy's field request, so every hacc step after the first crosses as
# positions and speed, without IDs or velocities), attach three ethwatch
# viewers over real
# sockets, steer the run from one of them, kill -9 another mid-stream
# and resume it from its cursor checkpoint, then audit the journal with
# ethinfo. No curl, no jq — every probe is one of our own binaries.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmp/ethgen" ./cmd/ethgen
go build -o "$tmp/ethsim" ./cmd/ethsim
go build -o "$tmp/ethviz" ./cmd/ethviz
go build -o "$tmp/ethwatch" ./cmd/ethwatch
go build -o "$tmp/ethinfo" ./cmd/ethinfo

steps=24
echo "== generate $steps hacc steps"
"$tmp/ethgen" -workload hacc -particles 20000 -steps "$steps" -out "$tmp/data" >/dev/null

# The viz proxy opens the hub before it dials the simulation, so viewers
# can attach while the rendezvous is still pending — no startup race.
echo "== boot ethviz -serve"
"$tmp/ethviz" -layout "$tmp/eth.layout" -width 192 -height 192 -images 2 \
    -serve 127.0.0.1:0 -queue 64 -history 64 \
    -trace "$tmp/viz.jsonl" >"$tmp/viz.log" 2>&1 &
vizpid=$!; pids="$pids $vizpid"

addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's|^hub: serving \([0-9.:]*\) .*|\1|p' "$tmp/viz.log")"
    [ -n "$addr" ] && break
    if ! kill -0 "$vizpid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "hub endpoint never came up:"; cat "$tmp/viz.log"; exit 1
fi
echo "   hub at $addr"

echo "== attach 3 viewers (one steering), then boot ethsim"
"$tmp/ethwatch" -addr "$addr" -name watcher-a -from 0 -idle 10s \
    >"$tmp/a.log" 2>&1 &
apid=$!; pids="$pids $apid"
# The wait loop below greps b1.log, so it must exist before the
# background redirect gets round to creating it.
: >"$tmp/b1.log"
"$tmp/ethwatch" -addr "$addr" -name watcher-b -from 0 -idle 10s \
    -cursor "$tmp/b.ckpt" >"$tmp/b1.log" 2>&1 &
bpid=$!; pids="$pids $bpid"
"$tmp/ethwatch" -addr "$addr" -name steerer -set ratio=0.5 -once -idle 10s \
    >"$tmp/c.log" 2>&1 &
cpid=$!; pids="$pids $cpid"

"$tmp/ethsim" -data "$tmp/data/hacc_step*.ethd" -layout "$tmp/eth.layout" \
    >"$tmp/sim.log" 2>&1 &
simpid=$!; pids="$pids $simpid"

# Kill watcher-b with SIGKILL once it has streamed a couple of frames:
# the cursor checkpoint it rewrites after every frame is all a resumed
# viewer needs.
i=0
while [ "$(grep -c '^step ' "$tmp/b1.log" || true)" -lt 2 ]; do
    i=$((i + 1))
    if [ $i -gt 200 ]; then echo "watcher-b never streamed:"; cat "$tmp/b1.log"; exit 1; fi
    sleep 0.05
done
kill -9 "$bpid" 2>/dev/null || true
wait "$bpid" 2>/dev/null || true
echo "== killed watcher-b mid-stream; resuming from its cursor"
"$tmp/ethwatch" -addr "$addr" -name watcher-b -cursor "$tmp/b.ckpt" -idle 10s \
    >"$tmp/b2.log" 2>&1 &
b2pid=$!; pids="$pids $b2pid"

wait "$apid" "$cpid" "$b2pid" "$simpid" "$vizpid"
pids=""

echo "== validate delivery"
grep -q '^resuming at step ' "$tmp/b2.log" || {
    echo "resumed viewer ignored its cursor:"; cat "$tmp/b2.log"; exit 1; }
got_a="$(grep -c '^step ' "$tmp/a.log")"
if [ "$got_a" -ne "$steps" ]; then
    echo "watcher-a saw $got_a/$steps frames:"; cat "$tmp/a.log"; exit 1
fi
# The killed viewer plus its resumed incarnation must cover every step
# exactly once apart from the at-most-one step replayed across the kill.
covered="$(cat "$tmp/b1.log" "$tmp/b2.log" | sed -n 's/^step \([0-9]*\):.*/\1/p' | sort -un | wc -l)"
if [ "$covered" -ne "$steps" ]; then
    echo "kill+resume covered $covered/$steps steps:"
    cat "$tmp/b1.log" "$tmp/b2.log"; exit 1
fi
grep -q '^steered: ' "$tmp/c.log" || { echo "steerer never steered:"; cat "$tmp/c.log"; exit 1; }

echo "== audit journal"
"$tmp/ethinfo" -journal "$tmp/viz.jsonl" > "$tmp/audit.txt"
grep -q ' forward seq=' "$tmp/audit.txt" || {
    echo "steering was never forwarded to the simulation:"; cat "$tmp/audit.txt"; exit 1; }
joins="$("$tmp/ethinfo" -journal -json "$tmp/viz.jsonl" | sed -n 's/.*"joins": \([0-9]*\).*/\1/p')"
if [ "${joins:-0}" -ne 4 ]; then
    echo "audit counted $joins joins, want 4:"; cat "$tmp/audit.txt"; exit 1
fi

echo "ok"
