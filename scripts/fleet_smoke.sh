#!/bin/sh
# End-to-end smoke for the experiment fleet scheduler: submit a sweep of
# real ethbench experiments (plus slow exec pads that keep the queue
# busy) to ethserve with 3 workers, SIGKILL one worker mid-attempt,
# SIGKILL the scheduler itself mid-sweep, resume with `ethserve -resume`,
# and audit the merged journal with ethinfo — every spec must complete
# and the conservation law (completed + quarantined == submitted) must
# balance. No curl, no jq — every probe is one of our own binaries.
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
go build -o "$tmp/ethserve" ./cmd/ethserve
go build -o "$tmp/ethbench" ./cmd/ethbench
go build -o "$tmp/ethinfo" ./cmd/ethinfo

# Pads are leased first (FIFO) and sleep long enough to give both kills
# a window; the bench specs are real single-experiment worker runs.
cat > "$tmp/sweep.json" <<EOF
[
  {"id": "pad-1", "kind": "exec", "args": ["/bin/sh", "-c", "sleep 1.2; : fleet_smoke_pad_1"]},
  {"id": "pad-2", "kind": "exec", "args": ["/bin/sh", "-c", "sleep 1.2; : fleet_smoke_pad_2"]},
  {"id": "pad-3", "kind": "exec", "args": ["/bin/sh", "-c", "sleep 1.2; : fleet_smoke_pad_3"]},
  {"id": "pad-4", "kind": "exec", "args": ["/bin/sh", "-c", "sleep 1.2; : fleet_smoke_pad_4"]},
  {"id": "table1", "kind": "bench"},
  {"id": "fig8",  "kind": "bench"},
  {"id": "fig9",  "kind": "bench"},
  {"id": "fig10", "kind": "bench"},
  {"id": "fig11", "kind": "bench"},
  {"id": "fig12", "kind": "bench"},
  {"id": "fig13", "kind": "bench"},
  {"id": "fig14", "kind": "bench"},
  {"id": "fig15", "kind": "bench"},
  {"id": "pad-5", "kind": "exec", "args": ["/bin/sh", "-c", "sleep 1.2; : fleet_smoke_pad_5"]}
]
EOF
total=14

echo "== start fleet (3 workers)"
"$tmp/ethserve" -dir "$tmp/fleet" -sweep "$tmp/sweep.json" -workers 3 \
    -retries 3 -stall 0 -bench-bin "$tmp/ethbench" \
    >"$tmp/serve1.log" 2>&1 &
servepid=$!; pids="$pids $servepid"

echo "== SIGKILL one worker mid-attempt"
i=0
padpid=""
while [ $i -lt 200 ]; do
    padpid="$(pgrep -f fleet_smoke_pad_1 || true)"
    [ -n "$padpid" ] && break
    if ! kill -0 "$servepid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.05
done
if [ -n "$padpid" ]; then
    kill -9 $padpid 2>/dev/null || true
    echo "   killed pad-1 worker (pid $padpid); the retry ladder takes it from here"
else
    echo "   pad-1 already finished; worker-kill window missed" ; exit 1
fi

# Kill the scheduler once its journal records a completed spec but the
# sweep is still running — the classic mid-sweep crash.
echo "== SIGKILL the scheduler mid-sweep"
i=0
while [ $i -lt 400 ]; do
    if grep -q '"type":"complete"' "$tmp/fleet/fleet.jsonl" 2>/dev/null; then break; fi
    if ! kill -0 "$servepid" 2>/dev/null; then break; fi
    i=$((i + 1))
    sleep 0.05
done
if ! kill -0 "$servepid" 2>/dev/null; then
    echo "scheduler finished before the kill window:"; cat "$tmp/serve1.log"; exit 1
fi
kill -9 "$servepid" 2>/dev/null || true
wait "$servepid" 2>/dev/null || true
pids=""
echo "   scheduler killed; its journal survives"

# Orphaned workers from the killed scheduler may still be running; the
# resumed fleet's retry ladder absorbs their journal locks.
echo "== resume the fleet"
if ! "$tmp/ethserve" -dir "$tmp/fleet" -resume -workers 3 \
    -retries 3 -stall 0 -bench-bin "$tmp/ethbench" \
    >"$tmp/serve2.log" 2>&1; then
    echo "resumed fleet failed:"; cat "$tmp/serve2.log"; exit 1
fi
grep -q "completed=$total" "$tmp/serve2.log" || {
    echo "resumed fleet did not complete all $total specs:"; cat "$tmp/serve2.log"; exit 1; }

echo "== validate artifacts"
for id in table1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15; do
    [ -s "$tmp/fleet/artifacts/$id/$id.csv" ] || {
        echo "missing artifact for $id"; ls -R "$tmp/fleet/artifacts"; exit 1; }
done

echo "== audit journal"
"$tmp/ethinfo" -journal "$tmp/fleet/fleet.jsonl" > "$tmp/audit.txt"
grep -q 'balanced=true' "$tmp/audit.txt" || {
    echo "fleet audit does not balance:"; cat "$tmp/audit.txt"; exit 1; }
submitted="$("$tmp/ethinfo" -journal -json "$tmp/fleet/fleet.jsonl" | sed -n 's/.*"submitted": \([0-9]*\).*/\1/p' | head -1)"
completed="$("$tmp/ethinfo" -journal -json "$tmp/fleet/fleet.jsonl" | sed -n 's/.*"completed": \([0-9]*\).*/\1/p' | head -1)"
if [ "${submitted:-0}" -ne "$total" ] || [ "${completed:-0}" -ne "$total" ]; then
    echo "audit counted submitted=$submitted completed=$completed, want $total:"; cat "$tmp/audit.txt"; exit 1
fi
grep -q 'requeue' "$tmp/audit.txt" || {
    echo "killed worker never requeued — the chaos did not bite:"; cat "$tmp/audit.txt"; exit 1; }

echo "ok"
