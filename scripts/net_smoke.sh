#!/usr/bin/env bash
# Loopback smoke tests of the TCP transport (docs/runtime.md).
#
# Phase 1 — kill/restart: starts a receiver, streams lines into it from a
# sender process, SIGKILLs the receiver after its first checkpoint
# (mid-stream), restarts it on the same port from the snapshot, and asserts:
#   - the sender exits 0 (every line durably acknowledged),
#   - the receiver's final word count is exactly 2 * LINES — reconnect-replay
#     lost nothing, and the snapshot watermark + dedup double-counted nothing.
#
# Phase 2 — live scale-out (runs when HEAD_BIN and WORKER_BIN are given):
# three processes — an elastic head, a deliberately slow worker that gets
# all partitions, and a second worker that joins mid-stream. The head must
# shed at least one partition to the newcomer via live migration with a
# cutover pause under 250 ms, then verify the durable word counts exactly.
#
# Phase 3 — serve front door (runs when KV_GATEWAY_BIN and KV_LOADGEN_BIN are
# given): kv_gateway + a --serve worker + kv_loadgen's deterministic smoke
# sequence (fill / delete / overload burst / drain / verify). Asserts the
# burst sheds with kOverloaded (nonzero SHED), bounded-stale reads get
# replica answers, and the exact KV contents survive the drain.
#
# Usage: net_smoke.sh [cluster_wordcount] [lines] [elastic_wordcount]
#                     [elastic_worker] [kv_gateway] [kv_loadgen]
set -u

BIN="${1:-build/examples/cluster_wordcount}"
LINES="${2:-300000}"
HEAD_BIN="${3:-}"
WORKER_BIN="${4:-}"
KV_GATEWAY_BIN="${5:-}"
KV_LOADGEN_BIN="${6:-}"
PORT="${SDG_SMOKE_PORT:-7741}"
WORK="$(mktemp -d /tmp/sdg_net_smoke.XXXXXX)"
SNAP="$WORK/wordcount.snap"
RECV_PID=""
SEND_PID=""
HEAD_PID=""
W1_PID=""
W2_PID=""
GW_PID=""
SW_PID=""

# Children are launched under setsid so each leads its own process group:
# the EXIT trap can then group-kill them, taking any grandchildren (worker
# subprocesses) along instead of orphaning them when a run times out.
SETSID=""
command -v setsid >/dev/null 2>&1 && SETSID="setsid"

kill_group() {  # kill_group <pid> — group kill, falling back to the pid
  [ -n "$1" ] || return 0
  kill -9 -- "-$1" 2>/dev/null || kill -9 "$1" 2>/dev/null
}

cleanup() {
  kill_group "$RECV_PID"
  kill_group "$SEND_PID"
  kill_group "$HEAD_PID"
  kill_group "$W1_PID"
  kill_group "$W2_PID"
  kill_group "$GW_PID"
  kill_group "$SW_PID"
  wait 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "NET SMOKE FAILED: $1" >&2
  echo "--- receiver 1 ---" >&2; cat "$WORK/recv1.log" >&2 || true
  echo "--- receiver 2 ---" >&2; cat "$WORK/recv2.log" >&2 || true
  echo "--- sender ---" >&2; cat "$WORK/send.log" >&2 || true
  exit 1
}

wait_for() {  # wait_for <pattern> <file> <timeout_s>
  local deadline=$(( $(date +%s) + $3 ))
  while ! grep -q "$1" "$2" 2>/dev/null; do
    [ "$(date +%s)" -ge "$deadline" ] && return 1
    sleep 0.05
  done
  return 0
}

# count_data_socks <port> — ESTABLISHED dialer-side sockets to <port>, from
# /proc/net/tcp. A loopback connection appears twice (one line per endpoint);
# matching only the REMOTE port counts each connection exactly once.
count_data_socks() {
  local hexport
  hexport="$(printf '%04X' "$1")"
  awk -v p=":$hexport" '$3 ~ (p "$") && $4 == "01"' /proc/net/tcp 2>/dev/null \
    | wc -l
}

# assert_one_data_sock <port> <who> — the multiplexed transport's core
# promise: ALL (entry, partition) channels to one worker share ONE socket.
# Polls until the count is nonzero and stable (the head connects channels as
# partitions flip), then requires exactly 1. A count that settles above 1
# means channels stopped sharing the pooled socket — the O(entries x
# partitions) regression this guard exists to catch.
assert_one_data_sock() {
  local n=0 prev=-1 deadline=$(( $(date +%s) + 15 ))
  while [ "$(date +%s)" -lt "$deadline" ]; do
    n="$(count_data_socks "$1")"
    if [ "$n" -gt 0 ] && [ "$n" = "$prev" ]; then
      break
    fi
    prev="$n"
    sleep 0.3
  done
  [ "$n" = "1" ] || return 1
  echo "MUX SOCKETS OK: $2 data port $1 has exactly 1 shared socket"
  return 0
}

[ -x "$BIN" ] || fail "binary '$BIN' not found or not executable"

# Incarnation 1: receive until the first durable checkpoint, then die hard.
$SETSID "$BIN" --role receiver --port "$PORT" --snapshot "$SNAP" \
  --ckpt-interval-ms 100 > "$WORK/recv1.log" 2>&1 &
RECV_PID=$!
wait_for "LISTENING" "$WORK/recv1.log" 10 || fail "receiver 1 never listened"

$SETSID "$BIN" --role sender --port "$PORT" --lines "$LINES" --batch 64 \
  > "$WORK/send.log" 2>&1 &
SEND_PID=$!

wait_for "CKPT" "$WORK/recv1.log" 30 || fail "receiver 1 never checkpointed"
kill -9 "$RECV_PID"
wait "$RECV_PID" 2>/dev/null
KILLED_AT="$(grep CKPT "$WORK/recv1.log" | tail -1)"
echo "receiver killed mid-stream after: $KILLED_AT"

# Incarnation 2: same port, restored from the snapshot. The sender's
# reconnect open-ack carries the durable watermark and it replays past it.
sleep 0.2
$SETSID "$BIN" --role receiver --port "$PORT" --snapshot "$SNAP" \
  --ckpt-interval-ms 100 > "$WORK/recv2.log" 2>&1 &
RECV_PID=$!
wait_for "restored snapshot" "$WORK/recv2.log" 10 \
  || fail "receiver 2 did not restore the snapshot"

wait "$SEND_PID"
SEND_RC=$?
SEND_PID=""
[ "$SEND_RC" -eq 0 ] || fail "sender exited $SEND_RC"

# The final checkpoint must cover the last timestamp with the exact mass.
# If the kill happened to land after everything was already durable, receiver 2
# restores w=LINES and (correctly) never re-checkpoints; the mass was then
# asserted by receiver 1's final CKPT line instead.
WANT_WORDS=$(( LINES * 2 ))
if wait_for "CKPT w=$LINES " "$WORK/recv2.log" 30; then
  FINAL="$(grep "CKPT w=$LINES " "$WORK/recv2.log" | tail -1)"
elif grep -q "restored snapshot w=$LINES" "$WORK/recv2.log" 2>/dev/null; then
  FINAL="$(grep "CKPT w=$LINES " "$WORK/recv1.log" | tail -1)"
  [ -n "$FINAL" ] || fail "snapshot covered w=$LINES but no matching CKPT line"
else
  fail "receiver 2 never reached watermark $LINES"
fi
echo "$FINAL" | grep -q "words=$WANT_WORDS$" \
  || fail "word mass mismatch: got '$FINAL', want words=$WANT_WORDS"

echo "NET SMOKE PASSED: $LINES lines survived a mid-stream receiver kill"
echo "  killed after : $KILLED_AT"
echo "  final        : $FINAL"

# ---------------------------------------------------------------------------
# Phase 2: three-process live scale-out.
# ---------------------------------------------------------------------------
if [ -z "$HEAD_BIN" ] || [ -z "$WORKER_BIN" ]; then
  echo "SCALE SMOKE SKIPPED: no head/worker binaries given"
  exit 0
fi

# Phase 1 leaves its second receiver incarnation running; retire it.
[ -n "$RECV_PID" ] && kill -9 "$RECV_PID" 2>/dev/null
wait "$RECV_PID" 2>/dev/null
RECV_PID=""

fail2() {
  echo "SCALE SMOKE FAILED: $1" >&2
  echo "--- head ---" >&2; cat "$WORK/head.log" >&2 || true
  echo "--- worker 1 ---" >&2; cat "$WORK/w1.log" >&2 || true
  echo "--- worker 2 ---" >&2; cat "$WORK/w2.log" >&2 || true
  exit 1
}

[ -x "$HEAD_BIN" ] || fail2 "binary '$HEAD_BIN' not found or not executable"
[ -x "$WORKER_BIN" ] || fail2 "binary '$WORKER_BIN' not found or not executable"

BACKUP="$WORK/elastic_backup"
SCALE_LINES="${SDG_SCALE_LINES:-4000}"

$SETSID "$HEAD_BIN" --backup "$BACKUP" --lines "$SCALE_LINES" \
  > "$WORK/head.log" 2>&1 &
HEAD_PID=$!
wait_for "HEAD port=" "$WORK/head.log" 10 || fail2 "head never started"
HEAD_PORT="$(grep -o 'HEAD port=[0-9]*' "$WORK/head.log" | head -1 | cut -d= -f2)"

# Worker 1: deliberately slow (2 ms per item) — it gets all the partitions
# and becomes the straggler the head scales out from.
$SETSID "$WORKER_BIN" --app wordcount --head-port "$HEAD_PORT" --id 1 \
  --backup "$BACKUP" --slow-us 2000 --ckpt-interval-ms 0 \
  > "$WORK/w1.log" 2>&1 &
W1_PID=$!
wait_for "ASSIGNED" "$WORK/head.log" 15 || fail2 "partitions never assigned"

# Every partition just flipped to worker 1: all of its channels must share
# one multiplexed socket, not one socket per (entry, partition).
wait_for "READY port=" "$WORK/w1.log" 15 || fail2 "worker 1 never printed READY"
W1_PORT="$(grep -o 'READY port=[0-9]*' "$WORK/w1.log" | head -1 | cut -d= -f2)"
assert_one_data_sock "$W1_PORT" "worker 1" \
  || fail2 "worker 1 data port $W1_PORT has $(count_data_socks "$W1_PORT") sockets, want 1 (mux)"

# Worker 2 joins mid-stream; the head's management loop must notice the
# imbalance and live-migrate at least one partition onto it.
$SETSID "$WORKER_BIN" --app wordcount --head-port "$HEAD_PORT" --id 2 \
  --backup "$BACKUP" --ckpt-interval-ms 0 \
  > "$WORK/w2.log" 2>&1 &
W2_PID=$!

wait "$HEAD_PID"
HEAD_RC=$?
HEAD_PID=""
[ "$HEAD_RC" -eq 0 ] || fail2 "head exited $HEAD_RC"

MIGRATED="$(grep 'MIGRATED n=' "$WORK/head.log" | tail -1)"
[ -n "$MIGRATED" ] || fail2 "no MIGRATED line in head log"
PAUSE_MS="$(echo "$MIGRATED" | grep -o 'pause_ms=[0-9-]*' | cut -d= -f2)"
[ -n "$PAUSE_MS" ] || fail2 "no pause_ms in '$MIGRATED'"
[ "$PAUSE_MS" -lt 250 ] || fail2 "cutover pause ${PAUSE_MS}ms >= 250ms"

COUNTS="$(grep 'COUNTS OK' "$WORK/head.log" | tail -1)"
[ -n "$COUNTS" ] || fail2 "head never verified the durable counts"

kill "$W1_PID" "$W2_PID" 2>/dev/null
wait "$W1_PID" "$W2_PID" 2>/dev/null
W1_PID=""; W2_PID=""

echo "SCALE SMOKE PASSED: live migration to a mid-stream joiner"
echo "  migration : $MIGRATED"
echo "  counts    : $COUNTS"

# ---------------------------------------------------------------------------
# Phase 3: serve front door — gateway + --serve worker + loadgen smoke.
# ---------------------------------------------------------------------------
if [ -z "$KV_GATEWAY_BIN" ] || [ -z "$KV_LOADGEN_BIN" ]; then
  echo "SERVE SMOKE SKIPPED: no kv_gateway/kv_loadgen binaries given"
  exit 0
fi

fail3() {
  echo "SERVE SMOKE FAILED: $1" >&2
  echo "--- gateway ---" >&2; cat "$WORK/gw.log" >&2 || true
  echo "--- serve worker ---" >&2; cat "$WORK/sw.log" >&2 || true
  echo "--- loadgen ---" >&2; cat "$WORK/lg.log" >&2 || true
  exit 1
}

[ -x "$KV_GATEWAY_BIN" ] || fail3 "binary '$KV_GATEWAY_BIN' not found or not executable"
[ -x "$KV_LOADGEN_BIN" ] || fail3 "binary '$KV_LOADGEN_BIN' not found or not executable"

SERVE_BACKUP="$WORK/serve_backup"

# Tiny admission watermarks so the loadgen's pipelined burst reliably crosses
# high water and must be shed with kOverloaded.
$SETSID "$KV_GATEWAY_BIN" --backup "$SERVE_BACKUP" --high-water 64 --low-water 8 \
  > "$WORK/gw.log" 2>&1 &
GW_PID=$!
wait_for "HEAD port=" "$WORK/gw.log" 10 || fail3 "gateway never started"
GW_PORT="$(grep -o 'HEAD port=[0-9]*' "$WORK/gw.log" | head -1 | cut -d= -f2)"

$SETSID "$WORKER_BIN" --app kv --serve --head-port "$GW_PORT" --id 1 \
  --backup "$SERVE_BACKUP" --ckpt-interval-ms 100 \
  > "$WORK/sw.log" 2>&1 &
SW_PID=$!
wait_for "SERVING" "$WORK/gw.log" 20 || fail3 "fleet never assembled"

# Serving fleet: put/get/del x partitions all ride ONE socket to the worker.
wait_for "READY port=" "$WORK/sw.log" 15 || fail3 "serve worker never printed READY"
SW_PORT="$(grep -o 'READY port=[0-9]*' "$WORK/sw.log" | head -1 | cut -d= -f2)"
assert_one_data_sock "$SW_PORT" "serve worker" \
  || fail3 "serve worker data port $SW_PORT has $(count_data_socks "$SW_PORT") sockets, want 1 (mux)"

# Deterministic fill / delete / overload burst / drain / verify. The loadgen
# exits nonzero if the burst never sheds, no stale get is answered from a
# replica, or any key reads back a wrong value after the drain.
"$KV_LOADGEN_BIN" --port "$GW_PORT" --mode smoke > "$WORK/lg.log" 2>&1
LG_RC=$?
[ "$LG_RC" -eq 0 ] || fail3 "loadgen smoke exited $LG_RC"

SHED_LINE="$(grep 'SHED n=' "$WORK/lg.log" | tail -1)"
SHED_N="$(echo "$SHED_LINE" | grep -o 'n=[0-9]*' | cut -d= -f2)"
[ -n "$SHED_N" ] && [ "$SHED_N" -gt 0 ] \
  || fail3 "overload burst never shed: '$SHED_LINE'"
KV_LINE="$(grep 'KV OK' "$WORK/lg.log" | tail -1)"
[ -n "$KV_LINE" ] || fail3 "loadgen never verified the KV contents"
REPLICA_LINE="$(grep 'REPLICA hits=' "$WORK/lg.log" | tail -1)"

# Clean gateway shutdown prints a final GWSTATS line.
kill -TERM "$GW_PID" 2>/dev/null
wait "$GW_PID" 2>/dev/null
GW_PID=""
GWSTATS="$(grep 'GWSTATS' "$WORK/gw.log" | tail -1)"
[ -n "$GWSTATS" ] || fail3 "gateway exited without GWSTATS"

kill "$SW_PID" 2>/dev/null
wait "$SW_PID" 2>/dev/null
SW_PID=""

echo "SERVE SMOKE PASSED: shed under overload, exact contents after drain"
echo "  shed    : $SHED_LINE"
echo "  replica : $REPLICA_LINE"
echo "  verify  : $KV_LINE"
echo "  gateway : $GWSTATS"
exit 0
