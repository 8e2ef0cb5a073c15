#!/usr/bin/env bash
# Integrity smoke test: boot airshedd with a persistent store, a fast
# background scrub cadence and paranoid read verification; run one job;
# then rot a stored result on disk behind the daemon's back and assert
# the scrubber quarantines the artifact (evidence preserved, never
# deleted), triggers a recompute repair, and that the repaired result is
# served again. Also asserts every integrity metric is exported on
# /metrics and that /healthz carries the scrub freshness signal.
# Dependency-light on purpose: bash, curl, awk, sed, dd.
set -euo pipefail

PORT="${PORT:-18091}"
BASE="http://localhost:${PORT}"
source "$(dirname "$0")/lib.sh"

build_daemon
start_daemon daemon -addr ":$PORT" -workers 2 -store "$WORKDIR/store" \
  -scrub-interval 1s -scrub-rate-mb 0 -verify-reads \
  -watchdog-factor 16
wait_ready "$BASE" daemon

# One real job so the store holds a result, checkpoints and a manifest.
resp=$(curl -sf "$BASE/v1/runs" -d '{"dataset": "mini", "machine": "t3e", "nodes": 2, "hours": 2}')
id=$(echo "$resp" | sed -n 's/.*"id": *"\(j[0-9]*\)".*/\1/p' | head -n1)
[ -n "$id" ] || { echo "no job id in response: $resp" >&2; exit 1; }

state=""
for _ in $(seq 1 200); do
  state=$(curl -sf "$BASE/v1/runs/$id" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
  [ "$state" = "done" ] && break
  sleep 0.3
done
[ "$state" = "done" ] || { echo "job stuck in state '$state'" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
base_peak=$(curl -sf "$BASE/v1/runs/$id" | sed -n 's/.*"peak_o3_ppm": *\([0-9.eE+-]*\).*/\1/p' | head -n1)
[ -n "$base_peak" ] || { echo "no peak_o3_ppm in baseline status" >&2; exit 1; }
echo "job $id done, peak O3 $base_peak"

# Rot the stored result behind the daemon's back. The result lands on
# disk just after the job status flips to done, so poll briefly.
res_file=""
for _ in $(seq 1 50); do
  res_file=$(ls "$WORKDIR/store/results/"*.res 2>/dev/null | head -n1)
  [ -n "$res_file" ] && break
  sleep 0.2
done
[ -n "$res_file" ] || { echo "no stored result to corrupt" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
printf '\xde\xad\xbe\xef' | dd of="$res_file" bs=1 seek=64 conv=notrunc status=none
echo "corrupted $res_file"

# The next scrub pass must quarantine it and repair by recompute.
metric() { curl -sf "$BASE/metrics" | awk -v m="$1" '$1 == m {print $2}'; }
repaired=0
for _ in $(seq 1 120); do
  q=$(metric airshedd_scrub_quarantined_total)
  r=$(metric airshedd_repairs_total)
  if [ "${q:-0}" -ge 1 ] && [ "${r:-0}" -ge 1 ]; then repaired=1; break; fi
  sleep 0.5
done
[ "$repaired" = "1" ] || {
  echo "scrubber never quarantined+repaired the rotten result" >&2
  curl -s "$BASE/metrics" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1
}
echo "quarantined: $(metric airshedd_scrub_quarantined_total), repairs: $(metric airshedd_repairs_total)"

# The repair recompute is the daemon's next sequential job; its served
# peak O3 must match the clean baseline exactly (determinism).
repair_id="j000002"
rstate=""
for _ in $(seq 1 100); do
  rstate=$(curl -sf "$BASE/v1/runs/$repair_id" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n1)
  [ "$rstate" = "done" ] && break
  sleep 0.3
done
[ "$rstate" = "done" ] || { echo "repair job $repair_id stuck in state '$rstate'" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
repair_peak=$(curl -sf "$BASE/v1/runs/$repair_id" | sed -n 's/.*"peak_o3_ppm": *\([0-9.eE+-]*\).*/\1/p' | head -n1)
[ "$repair_peak" = "$base_peak" ] || {
  echo "repaired peak O3 '$repair_peak' != baseline '$base_peak'" >&2; exit 1; }
echo "repair job $repair_id done, peak O3 matches baseline"

# Quarantine preserves evidence; the repaired result is back in place.
q_count=$(ls "$WORKDIR/store/quarantine/results/" 2>/dev/null | wc -l)
[ "$q_count" -ge 1 ] || { echo "quarantine directory empty — evidence deleted?" >&2; exit 1; }
[ -f "$res_file" ] || { echo "repaired result missing from store" >&2; exit 1; }

# Every integrity metric must be exported.
metrics=$(curl -sf "$BASE/metrics")
for m in airshedd_scrub_artifacts_total airshedd_quarantined_total \
         airshedd_repairs_total airshedd_sentinel_trips_total \
         airshedd_watchdog_cancels_total; do
  echo "$metrics" | grep -q "^$m " || { echo "metric $m missing from /metrics" >&2; exit 1; }
done

# /healthz reports scrub freshness and the quarantine count.
health=$(curl -sf "$BASE/healthz")
echo "$health" | grep -q '"scrub_last_pass_age_seconds"' || {
  echo "healthz missing scrub freshness: $health" >&2; exit 1; }
echo "$health" | grep -q '"quarantine_entries"' || {
  echo "healthz missing quarantine count: $health" >&2; exit 1; }

echo "scrub smoke OK"
