#!/usr/bin/env bash
# End-to-end smoke of the routedbd serving path, using only the shipped binaries:
#
#   1. routedb update --init         build the frozen image + state dir from a map
#   2. routedbd --unix ... &         serve it on a unix-domain datagram socket
#   3. routedb query                 resolve through the daemon, assert the route
#   4. edit a map file
#   5a. SIGHUP rollover              daemon re-reads its --map files in process
#   5b. watch rollover               external `routedb update` refreezes the image;
#                                    the daemon's file poll picks the rename up
#   5c. external update + SIGHUP     an external update adds a host, then a map
#                                    edit and SIGHUP; every name must answer as
#                                    `routedb batch` over the image on disk does
#   6. routedb query                 assert the NEW route, under the SAME daemon pid
#   7. SIGTERM                       clean exit (status 0) with stats on stderr
#
# The daemon's stderr goes to <workdir>/daemon.log.  Each of the four rollovers
# (5a, 5b, 5c's watch and 5c's SIGHUP) must log an applied reload, and none may
# log "rebuilt cold": every update numbers names as the image it replaces does,
# so every swap keeps the warm engine.
#
# Usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]
# Exits nonzero on the first broken step.

set -euo pipefail

ROUTEDB=${1:?usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]}
ROUTEDBD=${2:?usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]}
DIR=${3:-$(mktemp -d)}
IMAGE="$DIR/routes.pari"
SOCK="$DIR/routedbd.sock"
LOG="$DIR/daemon.log"
DAEMON_PID=""

say() { printf 'daemon_smoke: %s\n' "$*"; }
fail() {
  say "FAIL: $*"
  [[ -f "$LOG" ]] && sed 's/^/daemon_smoke: log: /' "$LOG"
  exit 1
}

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
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

# --- 1. build the image from a four-file map (leafc reachable via far, and a
# domain behind mid) ---
mkdir -p "$DIR"
printf 'hub\tmid(100), far(400)\n' > "$DIR/core.map"
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
printf 'mid\t.rutgers.edu(10)\n.rutgers.edu\tcaip(0), topaz(0)\n' > "$DIR/edu.map"
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map" "$DIR/edu.map"
say "image built: $IMAGE"

# --- 2. start the daemon; --ready-fd replaces sleep-and-hope ---
READY="$DIR/ready"
"$ROUTEDBD" --image "$IMAGE" --unix "$SOCK" \
    --map "$DIR/core.map" --map "$DIR/mid.map" --map "$DIR/far.map" --map "$DIR/edu.map" \
    --watch-interval 50 --ready-fd 3 3>"$READY" 2>"$LOG" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$READY" ]] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.05
done
[[ -s "$READY" ]] || fail "daemon never signalled readiness"
say "daemon up (pid $DAEMON_PID)"

# --- 3. resolve through the daemon ---
expect_route leafc 'far!leafc!%s'
expect_route leafa 'mid!leafa!%s'

# --- 4+5a. re-home leafc onto mid, SIGHUP, expect the new route ---
printf 'mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n' > "$DIR/mid.map"
printf 'far\thub(400)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  [[ "$(route_of leafc)" == 'mid!leafc!%s' ]] && break
  sleep 0.05
done
expect_route leafc 'mid!leafc!%s'
say "SIGHUP rollover applied"

# --- 5b. external update + file-watch rollover (leafc back onto far) ---
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update "$IMAGE" "$DIR/mid.map" "$DIR/far.map"
for _ in $(seq 1 100); do
  [[ "$(route_of leafc)" == 'far!leafc!%s' ]] && break
  sleep 0.05
done
expect_route leafc 'far!leafc!%s'
say "file-watch rollover applied"

# --- 5c. an external update adds newa, which it appends to the id space; then a
# map edit and SIGHUP, which loads the state dir and numbers names as the image
# on disk does.  Every name, answered from a warm cache, must match the image on
# disk. ---
printf 'hub\tmid(100), far(400), newa(1)\n' > "$DIR/core.map"
"$ROUTEDB" update "$IMAGE" "$DIR/core.map"
for _ in $(seq 1 100); do
  [[ "$(route_of newa)" == 'newa!%s' ]] && break
  sleep 0.05
done
expect_route newa 'newa!%s'
NAMES=(hub mid far newa leafa leafb leafc leafz .edu .rutgers.edu
       caip.rutgers.edu topaz.rutgers.edu)
# (query exits 1 when any name misses; the diff below checks every answer.)
"$ROUTEDB" query --socket "$SOCK" --timeout 2000 "${NAMES[@]}" > /dev/null || true
printf 'mid\tleafz(5)\n' >> "$DIR/mid.map"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  [[ "$(route_of leafz)" == 'mid!leafz!%s' ]] && break
  sleep 0.05
done
expect_route leafz 'mid!leafz!%s'
{ "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "${NAMES[@]}" || true; } \
    | cut -f1,2 > "$DIR/served.txt"
printf '%s\n' "${NAMES[@]}" | "$ROUTEDB" batch "$IMAGE" > "$DIR/on_disk.txt" 2>/dev/null
diff "$DIR/on_disk.txt" "$DIR/served.txt" \
    || fail "after SIGHUP the daemon answers differ from routedb batch on the image"
say "SIGHUP after an external update answers like the image on disk"

# Queries kept flowing the whole time against one daemon process.
kill -0 "$DAEMON_PID" || fail "daemon restarted somewhere along the way"

# Every rollover was applied into the warm engine.
APPLIED=$(grep -c 'reload (.*) applied' "$LOG" || true)
[[ "$APPLIED" == 4 ]] || fail "expected 4 applied rollovers in $LOG, saw $APPLIED"
if grep -q 'rebuilt cold' "$LOG"; then
  fail "a rollover swapped in a cold engine"
fi
sed 's/^/daemon_smoke: log: /' "$LOG"
say "all four rollovers kept the warm engine"

# --- 7. clean shutdown ---
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited nonzero on SIGTERM"
DAEMON_PID=""
say "clean SIGTERM exit"
say "PASS"
