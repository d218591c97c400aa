#!/usr/bin/env bash
# Chaos smoke of routedbd's graceful degradation, using only the shipped
# binaries and the PATHALIAS_FAILPOINTS environment hook:
#
#   1. routedb update --init          build the frozen image + state dir
#   2. routedbd (failpoints ARMED) &  the daemon's first publish attempts fail
#   3. SIGHUP under a rename fault    the rollover fails; the daemon must log
#                                     it, stay alive, and keep the OLD route
#   4. SIGHUP again                   the publish lands but the armed reopen
#                                     fault blocks the swap; the image watch
#                                     sees the on-disk image ahead of the served
#                                     one and self-heals — same pid throughout
#   5. external update + watch        plain `routedb update` (unarmed: the
#                                     failpoints live only in the daemon's env)
#                                     replaces the image; the watch picks it up
#   6. damaged state dir + SIGHUP     a same-length edit inside a kept source's
#                                     payload: the reload must fail and the old
#                                     map keep serving; `routedb update --init`
#                                     re-pairs image and state, the watch adopts
#                                     it, and the next SIGHUP applies again
#   7. SIGTERM                        clean exit (status 0)
#
# Usage: chaos_smoke.sh <routedb-bin> <routedbd-bin> [workdir]
# Exits nonzero on the first broken step.

set -euo pipefail

ROUTEDB=${1:?usage: chaos_smoke.sh <routedb-bin> <routedbd-bin> [workdir]}
ROUTEDBD=${2:?usage: chaos_smoke.sh <routedb-bin> <routedbd-bin> [workdir]}
DIR=${3:-$(mktemp -d)}
IMAGE="$DIR/routes.pari"
SOCK="$DIR/routedbd.sock"
DAEMON_PID=""

say() { printf 'chaos_smoke: %s\n' "$*"; }
fail() { say "FAIL: $*"; exit 1; }

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

route_of() {
  "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "$1" | awk -F'\t' '{print $3}'
}

expect_route() {
  local host=$1 want=$2 got
  got=$(route_of "$host") || fail "query for $host failed"
  [[ "$got" == "$want" ]] || fail "route for $host: got '$got', want '$want'"
  say "route for $host = $got"
}

expect_miss() {
  local got  # a miss makes the query exit 1, so only its output counts
  got=$({ "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "$1" || true; } | cut -f2)
  [[ "$got" == '*miss*' ]] || fail "$1 should miss, got '$got'"
  say "$1 misses"
}

wait_for_route() {
  local host=$1 want=$2
  for _ in $(seq 1 100); do
    [[ "$(route_of "$host")" == "$want" ]] && break
    sleep 0.05
  done
  expect_route "$host" "$want"
}

# --- 1. build the image (leafc reachable via far) ---
mkdir -p "$DIR"
printf 'hub\tmid(100), far(400)\n' > "$DIR/core.map"
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map"
say "image built: $IMAGE"

# --- 2. start the daemon with an armed fault schedule: the FIRST image
# publish rename fails, and the FIRST watch reopen fails.  The arming lives
# only in the daemon's environment — the routedb invocations below are clean.
READY="$DIR/ready"
PATHALIAS_FAILPOINTS="image.publish.rename=nth:1,errno:ENOSPC; rollover.reopen=nth:1" \
"$ROUTEDBD" --image "$IMAGE" --unix "$SOCK" \
    --map "$DIR/core.map" --map "$DIR/mid.map" --map "$DIR/far.map" \
    --watch-interval 50 --ready-fd 3 3>"$READY" 2>"$DIR/daemon.log" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$READY" ]] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.05
done
[[ -s "$READY" ]] || fail "daemon never signalled readiness"
say "daemon up (pid $DAEMON_PID) with armed failpoints"

expect_route leafc 'far!leafc!%s'

# --- 3. SIGHUP into the armed rename fault: the rollover must FAIL without
# killing the daemon or disturbing the served map ---
printf 'mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n' > "$DIR/mid.map"
printf 'far\thub(400)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q 'reload (SIGHUP) failed' "$DIR/daemon.log" && break
  sleep 0.05
done
grep -q 'reload (SIGHUP) failed' "$DIR/daemon.log" \
    || fail "daemon never logged the failed reload"
kill -0 "$DAEMON_PID" || fail "daemon died on a failed rollover"
expect_route leafc 'far!leafc!%s'   # the OLD route: nothing torn, nothing swapped
say "failed rollover degraded gracefully (old map still serving)"

# --- 4. SIGHUP again: the rename fault was nth:1 (spent), so the publish
# lands — but the armed reopen fault blocks the in-process swap.  The on-disk
# image is now ahead of the served map, which the watch notices and reconciles
# on its next tick: the route converges with NO further prodding. ---
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  [[ "$(route_of leafc)" == 'mid!leafc!%s' ]] && break
  sleep 0.05
done
expect_route leafc 'mid!leafc!%s'
grep -q 'rollover.reopen' "$DIR/daemon.log" \
    || fail "the reopen failpoint never fired — the swap path was not exercised"
kill -0 "$DAEMON_PID" || fail "daemon restarted somewhere along the way"
say "watch self-healed the published-but-unswapped image (same pid)"

# --- 5. plain external update + watch rollover (leafc back onto far) ---
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update "$IMAGE" "$DIR/mid.map" "$DIR/far.map"
for _ in $(seq 1 100); do
  [[ "$(route_of leafc)" == 'far!leafc!%s' ]] && break
  sleep 0.05
done
expect_route leafc 'far!leafc!%s'
say "external update picked up by the watch"

# --- 6. a damaged state dir.  Every SIGHUP loads <image>.state; no builder is
# kept between updates.  Swap leafb for leafz
# inside the payload that mid.map's manifest line names (same length, so only
# the payload's own digest can tell), and give far.map a new host. ---
STATE="$IMAGE.state"
PAYLOAD=$(awk -F'\t' -v src="$DIR/mid.map" '$3 == src {print $2}' "$STATE/manifest")
[[ -n "$PAYLOAD" && -f "$STATE/artifacts/$PAYLOAD" ]] \
    || fail "no payload for mid.map in $STATE/manifest"
sed -i 's/leafb/leafz/' "$STATE/artifacts/$PAYLOAD"
printf 'far\thub(400), leafc(10), leafd(5)\nleafc\tfar(10)\n' > "$DIR/far.map"
FAILED_BEFORE=$(grep -c 'reload (SIGHUP) failed' "$DIR/daemon.log")
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  (( $(grep -c 'reload (SIGHUP) failed' "$DIR/daemon.log") > FAILED_BEFORE )) && break
  sleep 0.05
done
(( $(grep -c 'reload (SIGHUP) failed' "$DIR/daemon.log") > FAILED_BEFORE )) \
    || fail "daemon reloaded from a damaged state dir"
kill -0 "$DAEMON_PID" || fail "daemon died on a damaged state dir"
expect_route leafb 'mid!leafb!%s'
expect_miss leafz
expect_miss leafd
say "damaged state dir refused (old map still serving)"

# Rebuild the state dir as the refusal says; the watch adopts the new image,
# and the next edit plus SIGHUP applies on the re-paired state.
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map"
wait_for_route leafd 'far!leafd!%s'
printf 'far\thub(400), leafc(10), leafd(5), leafe(5)\nleafc\tfar(10)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
wait_for_route leafe 'far!leafe!%s'
expect_route leafb 'mid!leafb!%s'
say "state dir rebuilt; SIGHUP applies again (same pid)"

# --- 7. clean shutdown ---
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited nonzero on SIGTERM"
DAEMON_PID=""
say "clean SIGTERM exit"
say "PASS"
