# The preamble daemon_smoke.sh and chaos_smoke.sh share.  A script sets SMOKE to
# its own name and sources this file with its own arguments:
#
#   SMOKE=daemon_smoke
#   source "$(dirname "$0")/smoke_common.sh"
#
# It checks the arguments (<routedb-bin> <routedbd-bin> [workdir]), makes the
# work dir, and defines ROUTEDB, ROUTEDBD, DIR, IMAGE, SOCK, LOG (the daemon's
# stderr), READY and DAEMON_PID; say and fail; the EXIT-trap cleanup; route_of,
# expect_route and wait_for_route over `routedb query`; and wait_ready.

ROUTEDB=${1:?usage: $SMOKE.sh <routedb-bin> <routedbd-bin> [workdir]}
ROUTEDBD=${2:?usage: $SMOKE.sh <routedb-bin> <routedbd-bin> [workdir]}
# A work dir this script makes is removed after a passing run and kept, with its
# path printed, after a failing one; a work dir given as $3 is always kept.
MADE_DIR=""
if [[ -n "${3:-}" ]]; then
  DIR=$3
else
  DIR=$(mktemp -d)
  MADE_DIR=$DIR
fi
mkdir -p "$DIR"
IMAGE="$DIR/routes.pari"
SOCK="$DIR/routedbd.sock"
LOG="$DIR/daemon.log"
READY="$DIR/ready"
DAEMON_PID=""

say() { printf '%s: %s\n' "$SMOKE" "$*"; }
fail() {
  say "FAIL: $*"
  [[ -f "$LOG" ]] && sed "s/^/$SMOKE: log: /" "$LOG"
  exit 1
}

cleanup() {
  local status=$?
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  if [[ -n "$MADE_DIR" ]]; then
    if [[ $status -eq 0 ]]; then
      rm -rf "$MADE_DIR"
    else
      say "work dir kept: $MADE_DIR"
    fi
  fi
}
trap cleanup EXIT

# The query helper: one destination, output is "host<TAB>via<TAB>route".
route_of() {
  "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "$1" | awk -F'\t' '{print $3}'
}

expect_route() {
  local host=$1 want=$2 got
  got=$(route_of "$host") || fail "query for $host failed"
  [[ "$got" == "$want" ]] || fail "route for $host: got '$got', want '$want'"
  say "route for $host = $got"
}

# Polls until the daemon answers $1 with route $2 (5 s at most), then expects it.
wait_for_route() {
  local host=$1 want=$2
  for _ in $(seq 1 100); do
    [[ "$(route_of "$host")" == "$want" ]] && break
    sleep 0.05
  done
  expect_route "$host" "$want"
}

# Waits for the daemon started as DAEMON_PID with `--ready-fd 3 3>"$READY"` to
# signal readiness; fails if it dies or stays silent for 5 s.
wait_ready() {
  for _ in $(seq 1 100); do
    [[ -s "$READY" ]] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
    sleep 0.05
  done
  [[ -s "$READY" ]] || fail "daemon never signalled readiness"
}
