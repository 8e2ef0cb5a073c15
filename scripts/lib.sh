# Shared plumbing for the *_smoke.sh scripts: one place that builds the
# daemon, starts and tears down processes, waits for /healthz and pulls a
# number out of indented JSON. Source it right after `set -euo pipefail`.
# It owns WORKDIR (a temp dir removed on exit) and the EXIT trap.
# Dependency-light on purpose: bash, curl, sed.

WORKDIR="$(mktemp -d)"
AIRSHEDD="${AIRSHEDD:-}"
PIDS=()

# cleanup kills and reaps every process registered in PIDS (daemons from
# start_daemon, plus anything a script appends itself).
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# build_daemon builds airshedd into WORKDIR unless $AIRSHEDD already
# names a binary (CI builds once and passes it to every script).
build_daemon() {
  if [ -z "$AIRSHEDD" ]; then
    AIRSHEDD="$WORKDIR/airshedd"
    go build -o "$AIRSHEDD" ./cmd/airshedd
  fi
}

# start_daemon NAME FLAGS... starts airshedd in the background logging to
# $WORKDIR/NAME.log and leaves its pid in DAEMON_PID.
start_daemon() {
  local name=$1
  shift
  "$AIRSHEDD" "$@" >"$WORKDIR/$name.log" 2>&1 &
  DAEMON_PID=$!
  PIDS+=("$DAEMON_PID")
}

# wait_ready BASE_URL NAME [TRIES] polls /healthz every 0.2 s (50 tries
# by default) and exits the script with the daemon's log if it never
# answers.
wait_ready() {
  local base=$1 name=$2 tries=${3:-50}
  for _ in $(seq 1 "$tries"); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "daemon at $base did not come up" >&2
  cat "$WORKDIR/$name.log" >&2
  exit 1
}

# json_field NAME prints the first numeric field NAME of the indented
# JSON on stdin.
json_field() {
  sed -n "s/^ *\"$1\": *\([0-9.eE+-]*\),*\$/\1/p" | head -n1
}
