#!/usr/bin/env bash
# Integrity smoke test: boot airshedd with a persistent store, a fast
# background scrub cadence and paranoid read verification; run one job;
# then rot its end-of-run checkpoint — where the stored result's final
# concentrations live — on disk behind the daemon's back and assert the
# scrubber quarantines the artifact (evidence preserved, never deleted),
# triggers a recompute repair, and that a restarted daemon restores the
# run's row from the repaired physics. Also asserts every integrity
# metric is exported on /metrics and that /healthz carries the scrub
# freshness signal.
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

# One real job so the store holds checkpoints, records and the run's row.
SPEC='{"dataset": "mini", "machine": "t3e", "nodes": 2, "hours": 2}'
resp=$(curl -sf "$BASE/v1/runs" -d "$SPEC")
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

# Rot the end-of-run checkpoint behind the daemon's back: the newest of
# the run's hourly checkpoints. The row is the job's last write and lands
# just after the job status flips to done, so poll for it first; offset 64
# is inside the snapshot's float section.
row_file=""
for _ in $(seq 1 50); do
  row_file=$(ls "$WORKDIR/store/specs/"*.spec 2>/dev/null | head -n1)
  [ -n "$row_file" ] && break
  sleep 0.2
done
[ -n "$row_file" ] || { echo "the job wrote no row" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
ck_file=$(ls -t "$WORKDIR/store/checkpoints/"*.snap 2>/dev/null | head -n1)
[ -n "$ck_file" ] || { echo "no stored checkpoint to corrupt" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
printf '\xde\xad\xbe\xef' | dd of="$ck_file" bs=1 seek=64 conv=notrunc status=none
echo "corrupted $ck_file"

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
  echo "scrubber never quarantined+repaired the rotten checkpoint" >&2
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

# Quarantine preserves evidence; the repaired checkpoint is back in place.
q_count=$(ls "$WORKDIR/store/quarantine/checkpoints/" 2>/dev/null | wc -l)
[ "$q_count" -ge 1 ] || { echo "quarantine directory empty — evidence deleted?" >&2; exit 1; }
[ -f "$ck_file" ] || { echo "repaired checkpoint missing from store" >&2; exit 1; }

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

# A restarted daemon has an empty cache: the run's row must restore from
# the repaired physics, as a store hit with the baseline's peak.
kill "$DAEMON_PID"; wait "$DAEMON_PID" 2>/dev/null || true
start_daemon restarted -addr ":$PORT" -workers 2 -store "$WORKDIR/store" -scrub-interval 0
wait_ready "$BASE" restarted
resp=$(curl -sf "$BASE/v1/runs" -d "$SPEC")
echo "$resp" | grep -q '"from_store": *true' || {
  echo "row not restored from the repaired store: $resp" >&2; cat "$WORKDIR/restarted.log" >&2; exit 1; }
rid=$(echo "$resp" | sed -n 's/.*"id": *"\(j[0-9]*\)".*/\1/p' | head -n1)
restored_peak=$(curl -sf "$BASE/v1/runs/$rid" | sed -n 's/.*"peak_o3_ppm": *\([0-9.eE+-]*\).*/\1/p' | head -n1)
[ "$restored_peak" = "$base_peak" ] || {
  echo "restored peak O3 '$restored_peak' != baseline '$base_peak'" >&2; exit 1; }
echo "restart: row restored from the store, peak O3 matches baseline"

echo "scrub smoke OK"
