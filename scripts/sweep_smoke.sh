#!/usr/bin/env bash
# Sweep smoke test: boot airshedd with a persistent artifact store, run
# a small emission-control sweep and assert the warm-start machinery
# engaged — the shared baseline prefix is simulated once and every
# control variant resumes from its stored checkpoint (>= 1 warm start
# in /metrics). Dependency-light on purpose: bash, curl, awk, sed.
set -euo pipefail

PORT="${PORT:-18080}"
BASE="http://localhost:${PORT}"
source "$(dirname "$0")/lib.sh"

build_daemon
start_daemon daemon -addr ":$PORT" -workers 2 -store "$WORKDIR/store"
wait_ready "$BASE" daemon

resp=$(curl -sf "$BASE/v1/sweeps" -d '{
  "name": "smoke",
  "base": {"dataset": "mini", "machine": "t3e", "nodes": 2, "hours": 3},
  "grid": {"nox_scales": [0.7, 0.5], "control_start_hours": [2]}
}')
id=$(echo "$resp" | sed -n 's/.*"id": *"\(s[0-9]*\)".*/\1/p' | head -n1)
[ -n "$id" ] || { echo "no sweep id in response: $resp" >&2; exit 1; }
echo "sweep $id submitted"

state=""
for _ in $(seq 1 300); do
  status=$(curl -sf "$BASE/v1/sweeps/$id")
  state=$(echo "$status" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
  [ "$state" = "done" ] && break
  sleep 0.5
done
[ "$state" = "done" ] || { echo "sweep stuck in state '$state'" >&2; exit 1; }

failed=$(echo "$status" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' | head -n1)
[ "$failed" = "0" ] || { echo "sweep had $failed failed jobs: $status" >&2; exit 1; }

warm=$(curl -sf "$BASE/metrics" | awk '$1 == "airshedd_warm_starts_total" {print $2}')
echo "warm starts: ${warm:-0}"
if [ -z "$warm" ] || [ "$warm" -lt 1 ]; then
  echo "no warm starts recorded; store/warm-start path is broken" >&2
  curl -s "$BASE/metrics" >&2
  exit 1
fi
echo "sweep smoke OK"
