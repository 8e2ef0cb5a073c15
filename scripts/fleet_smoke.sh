#!/usr/bin/env bash
# Fleet smoke test: boot a coordinator and two worker daemons, submit a
# sharded sweep, kill one worker mid-sweep, and assert the sweep still
# completes with zero failures and at least one reassigned shard — then
# run the same sweep on a single standalone daemon and assert the fleet
# produced bit-identical peak ozone for every scenario. Dependency-light
# on purpose: bash, curl, awk, sed.
set -euo pipefail

CPORT="${CPORT:-18090}"
W1PORT="${W1PORT:-18091}"
W2PORT="${W2PORT:-18092}"
RPORT="${RPORT:-18093}"
COORD="http://localhost:${CPORT}"
REF="http://localhost:${RPORT}"
source "$(dirname "$0")/lib.sh"

build_daemon
start_daemon coord -addr ":$CPORT" -workers 1 -store "$WORKDIR/store" \
  -fleet-coordinator -fleet-heartbeat-timeout 2s -fleet-poll 300ms
wait_ready "$COORD" coord

start_daemon w1 -addr ":$W1PORT" -workers 2 -fleet-worker "$COORD" \
  -fleet-name w1 -fleet-heartbeat 500ms
W1_PID=$DAEMON_PID
start_daemon w2 -addr ":$W2PORT" -workers 2 -fleet-worker "$COORD" \
  -fleet-name w2 -fleet-heartbeat 500ms
wait_ready "http://localhost:$W1PORT" w1
wait_ready "http://localhost:$W2PORT" w2

live=0
for _ in $(seq 1 50); do
  live=$(curl -sf "$COORD/healthz" | sed -n 's/.*"fleet_workers": *\([0-9]*\).*/\1/p')
  [ "${live:-0}" = "2" ] && break
  sleep 0.2
done
[ "${live:-0}" = "2" ] || { echo "workers never registered (live=$live)" >&2; cat "$WORKDIR"/*.log >&2; exit 1; }
echo "fleet up: coordinator + 2 workers"

SWEEP_BODY='{
  "name": "fleet-smoke",
  "base": {"dataset": "mini", "machine": "t3e", "nodes": 2, "hours": 2},
  "grid": {"nox_scales": [1.0, 0.8, 0.6]}
}'

resp=$(curl -sf "$COORD/v1/fleet/sweeps" -d "$SWEEP_BODY")
id=$(echo "$resp" | sed -n 's/.*"id": *"\(f[0-9]*\)".*/\1/p' | head -n1)
[ -n "$id" ] || { echo "no fleet sweep id in response: $resp" >&2; exit 1; }
echo "fleet sweep $id submitted"

# Kill one worker immediately: its shard must be reassigned to the
# survivor regardless of how far its jobs got.
kill -9 "$W1_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
echo "killed worker w1"

state=""
for _ in $(seq 1 600); do
  status=$(curl -sf "$COORD/v1/fleet/sweeps/$id")
  state=$(echo "$status" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
  [ "$state" = "done" ] && break
  sleep 0.5
done
[ "$state" = "done" ] || { echo "fleet sweep stuck in state '$state': $status" >&2; cat "$WORKDIR"/*.log >&2; exit 1; }

failed=$(echo "$status" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' | head -n1)
[ "$failed" = "0" ] || { echo "fleet sweep had $failed failed jobs: $status" >&2; exit 1; }

reassigned=$(curl -sf "$COORD/metrics" | awk '$1 == "airshedd_fleet_shards_reassigned_total" {print $2}')
echo "shards reassigned: ${reassigned:-0}"
if [ -z "$reassigned" ] || [ "$reassigned" -lt 1 ]; then
  echo "killed worker's shard was never reassigned" >&2
  curl -s "$COORD/metrics" >&2
  exit 1
fi

# Reference: the same sweep on one standalone daemon with a fresh store.
start_daemon ref -addr ":$RPORT" -workers 2 -store "$WORKDIR/refstore"
wait_ready "$REF" ref

resp=$(curl -sf "$REF/v1/sweeps" -d "$SWEEP_BODY")
rid=$(echo "$resp" | sed -n 's/.*"id": *"\(s[0-9]*\)".*/\1/p' | head -n1)
[ -n "$rid" ] || { echo "no reference sweep id: $resp" >&2; exit 1; }
state=""
for _ in $(seq 1 600); do
  rstatus=$(curl -sf "$REF/v1/sweeps/$rid")
  state=$(echo "$rstatus" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
  [ "$state" = "done" ] && break
  sleep 0.5
done
[ "$state" = "done" ] || { echo "reference sweep stuck in '$state'" >&2; exit 1; }

# Every scenario's peak ozone must agree bit-for-bit between the fleet
# (served from the coordinator's store) and the standalone daemon. The
# textual JSON compare is exact: identical floats print identically.
peak_of() {
  local base=$1 nox=$2
  local body id st
  body=$(printf '{"dataset":"mini","machine":"t3e","nodes":2,"hours":2,"nox_scale":%s}' "$nox")
  id=$(curl -sf "$base/v1/runs" -d "$body" | sed -n 's/.*"id": *"\(j[0-9]*\)".*/\1/p' | head -n1)
  for _ in $(seq 1 100); do
    st=$(curl -sf "$base/v1/runs/$id")
    case $(echo "$st" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1) in done) break ;; esac
    sleep 0.2
  done
  echo "$st" | sed -n 's/.*"peak_o3_ppm": *\([-0-9.e+]*\).*/\1/p' | head -n1
}

for nox in 1.0 0.8 0.6; do
  fleet_peak=$(peak_of "$COORD" "$nox")
  ref_peak=$(peak_of "$REF" "$nox")
  [ -n "$fleet_peak" ] || { echo "no fleet peak for nox=$nox" >&2; exit 1; }
  if [ "$fleet_peak" != "$ref_peak" ]; then
    echo "peak O3 diverged at nox=$nox: fleet=$fleet_peak ref=$ref_peak" >&2
    exit 1
  fi
  echo "nox=$nox peak_o3=$fleet_peak (fleet == single daemon)"
done

echo "fleet smoke OK"
