#!/usr/bin/env bash
# Streaming smoke test: boot airshedd, submit a multi-hour run, and
# consume GET /v1/runs/{id}/stream with curl -N. Asserts the SSE feed is
# genuinely incremental — the first "hour" event must arrive while the
# run is still executing — and that the stream carries one event per
# hour before closing with a terminal "status" event.
# Dependency-light on purpose: bash, curl, sed, grep.
set -euo pipefail

PORT="${PORT:-18081}"
BASE="http://localhost:${PORT}"
source "$(dirname "$0")/lib.sh"
HOURS="${HOURS:-6}"

build_daemon
start_daemon daemon -addr ":$PORT" -workers 1
wait_ready "$BASE" daemon

resp=$(curl -sf "$BASE/v1/runs" -d "{\"dataset\":\"mini\",\"machine\":\"t3e\",\"nodes\":2,\"hours\":$HOURS}")
id=$(echo "$resp" | sed -n 's/.*"id": *"\(j[0-9]*\)".*/\1/p' | head -n1)
[ -n "$id" ] || { echo "no job id in response: $resp" >&2; exit 1; }
echo "run $id submitted ($HOURS hours)"

# Stream in the background; curl -N disables buffering so events land
# in the file the moment the server flushes them.
curl -sN "$BASE/v1/runs/$id/stream" >"$WORKDIR/stream.txt" &
CURL_PID=$!
PIDS+=("$CURL_PID")

# The incrementality assertion: the first hour event must be observable
# while the scheduler still reports the job running.
state_at_first_hour=""
for _ in $(seq 1 600); do
  if grep -q '^event: hour' "$WORKDIR/stream.txt" 2>/dev/null; then
    state_at_first_hour=$(curl -sf "$BASE/v1/runs/$id" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
    break
  fi
  sleep 0.05
done
[ -n "$state_at_first_hour" ] || { echo "no hour event ever arrived" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
echo "first hour event arrived with run state: $state_at_first_hour"
case "$state_at_first_hour" in
  queued|running) ;;
  *) echo "stream was not incremental: run already '$state_at_first_hour' at first hour event" >&2; exit 1 ;;
esac

wait "$CURL_PID"

hour_events=$(grep -c '^event: hour' "$WORKDIR/stream.txt")
[ "$hour_events" -eq "$HOURS" ] || {
  echo "stream carried $hour_events hour events, want $HOURS" >&2
  cat "$WORKDIR/stream.txt" >&2; exit 1
}
grep -q '^event: status' "$WORKDIR/stream.txt" || { echo "stream missing terminal status event" >&2; exit 1; }
grep -A1 '^event: status' "$WORKDIR/stream.txt" | grep -q '"state": *"done"' || {
  echo "terminal status event is not done:" >&2
  grep -A1 '^event: status' "$WORKDIR/stream.txt" >&2; exit 1
}

echo "stream smoke OK"
