#!/usr/bin/env bash
# Fleet chaos smoke test: boot a coordinator (with its durable sweep
# journal) and two worker daemons, submit a sharded sweep, kill -9 the
# COORDINATOR once the fleet has made real progress, restart it over the
# same store and journal, and assert the sweep resumes from the journal
# and completes with zero failures — then run the same sweep on a single
# standalone daemon and assert the recovered fleet produced bit-identical
# peak ozone for every scenario. Dependency-light: bash, curl, awk, sed.
set -euo pipefail

CPORT="${CPORT:-18190}"
W1PORT="${W1PORT:-18191}"
W2PORT="${W2PORT:-18192}"
RPORT="${RPORT:-18193}"
COORD="http://localhost:${CPORT}"
REF="http://localhost:${RPORT}"
source "$(dirname "$0")/lib.sh"

build_daemon

start_coordinator() { # log name
  start_daemon "$1" -addr ":$CPORT" -workers 1 -store "$WORKDIR/store" \
    -fleet-coordinator -fleet-heartbeat-timeout 2s -fleet-poll 300ms
  COORD_PID=$DAEMON_PID
  wait_ready "$COORD" "$1" 100
}

start_coordinator coord1

start_daemon w1 -addr ":$W1PORT" -workers 2 -fleet-worker "$COORD" \
  -fleet-name w1 -fleet-heartbeat 500ms
start_daemon w2 -addr ":$W2PORT" -workers 2 -fleet-worker "$COORD" \
  -fleet-name w2 -fleet-heartbeat 500ms
wait_ready "http://localhost:$W1PORT" w1 100
wait_ready "http://localhost:$W2PORT" w2 100

live=0
for _ in $(seq 1 50); do
  live=$(curl -sf "$COORD/healthz" | sed -n 's/.*"fleet_workers": *\([0-9]*\).*/\1/p')
  [ "${live:-0}" = "2" ] && break
  sleep 0.2
done
[ "${live:-0}" = "2" ] || { echo "workers never registered (live=$live)" >&2; cat "$WORKDIR"/*.log >&2; exit 1; }
echo "fleet up: coordinator + 2 workers"

# Twelve scenarios, not three: a mini run is ~0.1 s, so a three-scenario
# sweep can finish inside one 300 ms coordinator poll and leave nothing
# to kill mid-sweep.
SWEEP_BODY='{
  "name": "fleet-chaos-smoke",
  "base": {"dataset": "mini", "machine": "t3e", "nodes": 2, "hours": 2},
  "grid": {"nox_scales": [1.0, 0.8, 0.6], "voc_scales": [1.0, 0.9, 0.8, 0.7]}
}'

resp=$(curl -sf "$COORD/v1/fleet/sweeps" -d "$SWEEP_BODY")
id=$(echo "$resp" | sed -n 's/.*"id": *"\(f[0-9]*\)".*/\1/p' | head -n1)
[ -n "$id" ] || { echo "no fleet sweep id in response: $resp" >&2; exit 1; }
echo "fleet sweep $id submitted"

# Wait until at least one scenario has actually completed, so the restart
# provably reconciles finished work from the store instead of recomputing
# everything from scratch.
completed=0
for _ in $(seq 1 300); do
  status=$(curl -sf "$COORD/v1/fleet/sweeps/$id" || true)
  completed=$(echo "$status" | sed -n 's/.*"completed": *\([0-9]*\).*/\1/p' | head -n1)
  [ "${completed:-0}" -ge 1 ] && break
  sleep 0.2
done
[ "${completed:-0}" -ge 1 ] || { echo "no progress before kill: $status" >&2; cat "$WORKDIR"/*.log >&2; exit 1; }
echo "progress before kill: $completed scenarios completed"

# The chaos move: kill -9 the coordinator mid-sweep. Nothing is flushed
# or handed over beyond what the fsynced journal and the store already
# hold.
kill -9 "$COORD_PID" 2>/dev/null || true
wait "$COORD_PID" 2>/dev/null || true
echo "coordinator killed (-9) mid-sweep"

# Restart over the same store + journal. The port may need a beat to
# free; retry the bind a few times.
for attempt in $(seq 1 5); do
  if start_coordinator coord2; then break; fi
  [ "$attempt" = "5" ] && { echo "coordinator failed to restart" >&2; exit 1; }
  sleep 1
done
grep -q "fleet journal: resumed" "$WORKDIR/coord2.log" \
  || { echo "restart did not resume journaled sweeps" >&2; cat "$WORKDIR/coord2.log" >&2; exit 1; }
echo "coordinator restarted, sweep resumed from journal"

state=""
for _ in $(seq 1 600); do
  status=$(curl -sf "$COORD/v1/fleet/sweeps/$id" || true)
  state=$(echo "$status" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
  [ "$state" = "done" ] && break
  sleep 0.5
done
[ "$state" = "done" ] || { echo "recovered sweep stuck in state '$state': $status" >&2; cat "$WORKDIR"/*.log >&2; exit 1; }

failed=$(echo "$status" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' | head -n1)
[ "$failed" = "0" ] || { echo "recovered sweep had $failed failed jobs: $status" >&2; exit 1; }

recovered=$(curl -sf "$COORD/metrics" | awk '$1 == "airshedd_fleet_sweeps_recovered_total" {print $2}')
echo "sweeps recovered across restart: ${recovered:-0}"
if [ -z "$recovered" ] || [ "$recovered" -lt 1 ]; then
  echo "restart never counted a recovered sweep" >&2
  curl -s "$COORD/metrics" >&2
  exit 1
fi

# Reference: the same sweep on one standalone daemon with a fresh store.
start_daemon ref -addr ":$RPORT" -workers 2 -store "$WORKDIR/refstore"
wait_ready "$REF" ref 100

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

# Every scenario's peak ozone must agree bit-for-bit between the
# recovered fleet (served from the coordinator's store) and the
# standalone daemon. The textual JSON compare is exact: identical floats
# print identically.
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
  echo "nox=$nox peak_o3=$fleet_peak (recovered fleet == single daemon)"
done

echo "fleet chaos smoke OK"
