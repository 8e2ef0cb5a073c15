#!/usr/bin/env bash
# SR smoke test: boot airshedd with a persistent store, build a small
# source-receptor matrix on the mini dataset through POST /v1/sr/build,
# query it through POST /v1/sr/predict, and assert the prediction agrees
# with one full simulation of the same emission scenario within the
# documented moderate-control error bound (1% of peak O3, DESIGN.md
# section 6f). Also asserts the SR counters surfaced in /metrics and the
# matrix residency in /healthz. Dependency-light on purpose: bash, curl,
# awk, sed.
set -euo pipefail

PORT="${PORT:-18081}"
BASE="http://localhost:${PORT}"
source "$(dirname "$0")/lib.sh"

build_daemon
start_daemon daemon -addr ":$PORT" -workers 2 -store "$WORKDIR/store"
wait_ready "$BASE" daemon

SET='{"base":{"dataset":"mini","machine":"t3e","nodes":2,"hours":2},"groups":2}'

resp=$(curl -sf "$BASE/v1/sr/build" -d "$SET")
key=$(echo "$resp" | sed -n 's/^ *"key": *"\([a-f0-9]*\)",*$/\1/p' | head -n1)
[ -n "$key" ] || { echo "no matrix key in build response: $resp" >&2; exit 1; }
echo "matrix $key building"

# Poll by re-POSTing the same set until the build reports ready.
state=""
for _ in $(seq 1 300); do
  resp=$(curl -sf "$BASE/v1/sr/build" -d "$SET")
  state=$(echo "$resp" | sed -n 's/^ *"state": *"\([a-z]*\)",*$/\1/p' | head -n1)
  [ "$state" = "ready" ] && break
  sleep 0.5
done
[ "$state" = "ready" ] || { echo "matrix build stuck in state '$state'" >&2; cat "$WORKDIR/daemon.log" >&2; exit 1; }
echo "matrix ready"

# Predict a moderate-control scenario from the matrix (zero simulation)...
pred=$(curl -sf "$BASE/v1/sr/predict" \
  -d "{\"matrix_key\":\"$key\",\"nox_scale\":0.9,\"voc_scale\":1.1}")
pred_peak=$(echo "$pred" | json_field peak_o3_ppm)
[ -n "$pred_peak" ] || { echo "no peak in prediction: $pred" >&2; exit 1; }

# ...then run the same scenario for real and compare peaks.
run=$(curl -sf "$BASE/v1/runs" \
  -d '{"dataset":"mini","machine":"t3e","nodes":2,"hours":2,"nox_scale":0.9,"voc_scale":1.1}')
id=$(echo "$run" | sed -n 's/^ *"id": *"\([a-z0-9]*\)",*$/\1/p' | head -n1)
[ -n "$id" ] || { echo "no run id in response: $run" >&2; exit 1; }
state=""
for _ in $(seq 1 300); do
  status=$(curl -sf "$BASE/v1/runs/$id")
  state=$(echo "$status" | sed -n 's/^ *"state": *"\([a-z]*\)",*$/\1/p' | head -n1)
  [ "$state" = "done" ] && break
  sleep 0.5
done
[ "$state" = "done" ] || { echo "full run stuck in state '$state'" >&2; exit 1; }
full_peak=$(echo "$status" | json_field peak_o3_ppm)
[ -n "$full_peak" ] || { echo "no peak in run summary: $status" >&2; exit 1; }

echo "predicted peak O3: $pred_peak ppm; full-run peak O3: $full_peak ppm"
awk -v p="$pred_peak" -v f="$full_peak" 'BEGIN {
  err = (p - f) / f; if (err < 0) err = -err
  printf "relative error: %.5f (bound 0.01)\n", err
  exit (err <= 0.01) ? 0 : 1
}' || { echo "SR prediction outside the 1% moderate-control bound" >&2; exit 1; }

# SR counters and residency must be surfaced.
metrics=$(curl -sf "$BASE/metrics")
for m in airshedd_sr_predicts_total airshedd_sr_matrix_builds_total airshedd_sr_matrices_resident; do
  v=$(echo "$metrics" | awk -v m="$m" '$1 == m {print $2}')
  [ -n "$v" ] && [ "$v" -ge 1 ] || { echo "metric $m missing or zero" >&2; exit 1; }
done
resident=$(curl -sf "$BASE/healthz" | json_field sr_matrices)
[ "$resident" = "1" ] || { echo "healthz sr_matrices = '$resident', want 1" >&2; exit 1; }

echo "sr smoke OK"
