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
#                                     bytes in the manifest: the reload must
#                                     fail and the old map keep serving;
#                                     `routedb update --init` re-pairs image
#                                     and state, the watch adopts it, and the
#                                     next SIGHUP applies again
#   7. corrupt image + watch, SIGHUP  a copy of the image with one route byte
#                                     flipped is renamed over it: the adopt
#                                     must fail its checksum and the old route
#                                     keep serving; a SIGHUP with no source
#                                     changed republishes a good image, which
#                                     the daemon adopts
#   8. SIGTERM                        clean exit (status 0)
#
# Usage: chaos_smoke.sh <routedb-bin> <routedbd-bin> [workdir]
# Exits nonzero on the first broken step.

set -euo pipefail

SMOKE=chaos_smoke
source "$(dirname "$0")/smoke_common.sh"

expect_miss() {
  local got  # a miss makes the query exit 1, so only its output counts
  got=$({ "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "$1" || true; } | cut -f2)
  [[ "$got" == '*miss*' ]] || fail "$1 should miss, got '$got'"
  say "$1 misses"
}

# --- 1. build the image (leafc reachable via far) ---
printf 'hub\tmid(100), far(400)\n' > "$DIR/core.map"
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map"
say "image built: $IMAGE"

# --- 2. start the daemon with an armed fault schedule: the FIRST image
# publish rename fails, and the FIRST watch reopen fails.  The arming lives
# only in the daemon's environment — the routedb invocations below are clean.
PATHALIAS_FAILPOINTS="image.publish.rename=nth:1,errno:ENOSPC; rollover.reopen=nth:1" \
"$ROUTEDBD" --image "$IMAGE" --unix "$SOCK" \
    --map "$DIR/core.map" --map "$DIR/mid.map" --map "$DIR/far.map" \
    --watch-interval 50 --ready-fd 3 3>"$READY" 2>"$LOG" &
DAEMON_PID=$!
wait_ready
say "daemon up (pid $DAEMON_PID) with armed failpoints"

expect_route leafc 'far!leafc!%s'

# --- 3. SIGHUP into the armed rename fault: the rollover must FAIL without
# killing the daemon or disturbing the served map ---
printf 'mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n' > "$DIR/mid.map"
printf 'far\thub(400)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q 'reload (SIGHUP) failed' "$LOG" && break
  sleep 0.05
done
grep -q 'reload (SIGHUP) failed' "$LOG" \
    || fail "daemon never logged the failed reload"
kill -0 "$DAEMON_PID" || fail "daemon died on a failed rollover"
expect_route leafc 'far!leafc!%s'   # the OLD route: nothing torn, nothing swapped
say "failed rollover degraded gracefully (old map still serving)"

# --- 4. SIGHUP again: the rename fault was nth:1 (spent), so the publish
# lands — but the armed reopen fault blocks the in-process swap.  The on-disk
# image is now ahead of the served map, which the watch notices and reconciles
# on its next tick: the route converges with NO further prodding. ---
kill -HUP "$DAEMON_PID"
wait_for_route leafc 'mid!leafc!%s'
grep -q 'rollover.reopen' "$LOG" \
    || fail "the reopen failpoint never fired — the swap path was not exercised"
kill -0 "$DAEMON_PID" || fail "daemon restarted somewhere along the way"
say "watch self-healed the published-but-unswapped image (same pid)"

# --- 5. plain external update + watch rollover (leafc back onto far) ---
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update "$IMAGE" "$DIR/mid.map" "$DIR/far.map"
wait_for_route leafc 'far!leafc!%s'
say "external update picked up by the watch"

# --- 6. a damaged state dir.  Every SIGHUP loads <image>.state; no builder is
# kept between updates.  Swap leafb for leafz
# inside mid.map's bytes, which the manifest carries inline after mid.map's
# name line (same length, so only the manifest's digest can tell), and give
# far.map a new host. ---
STATE="$IMAGE.state"
grep -qxF "$DIR/mid.map" "$STATE/manifest" \
    || fail "no inline bytes for mid.map in $STATE/manifest"
# From mid.map's name line to the next source's header line.
sed -i "\\|^$DIR/mid.map\$|,/^file [0-9]* [0-9]*\$/ s/leafb/leafz/" "$STATE/manifest"
grep -q 'leafz' "$STATE/manifest" || fail "the swap missed mid.map's bytes"
printf 'far\thub(400), leafc(10), leafd(5)\nleafc\tfar(10)\n' > "$DIR/far.map"
FAILED_BEFORE=$(grep -c 'reload (SIGHUP) failed' "$LOG")
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  (( $(grep -c 'reload (SIGHUP) failed' "$LOG") > FAILED_BEFORE )) && break
  sleep 0.05
done
(( $(grep -c 'reload (SIGHUP) failed' "$LOG") > FAILED_BEFORE )) \
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

# --- 7. a corrupt image.  Copy the published image, flip one byte inside
# leafb's route string, and rename the copy over the image: the rename gives
# the file a new inode, which the watch sees.  (Flipping the live file in place
# would change the bytes the daemon is serving.)  The adopt must fail the image
# checksum and the old route keep serving.  Then a SIGHUP with no source
# changed must republish a good image, and the daemon adopt it. ---
count_log() { grep -c "$1" "$LOG" || true; }
OFFSET=$(grep -obaF 'mid!leafb!%s' "$IMAGE" | head -n 1 | cut -d: -f1)
[[ -n "$OFFSET" ]] || fail "leafb's route string is not in $IMAGE"
cp "$IMAGE" "$DIR/corrupt.pari"
printf 'X' | dd of="$DIR/corrupt.pari" bs=1 seek=$((OFFSET + 4)) conv=notrunc status=none
cmp -s "$IMAGE" "$DIR/corrupt.pari" && fail "the flip left the copy unchanged"
WATCH_FAILED_BEFORE=$(count_log 'reload (watch) failed')
mv "$DIR/corrupt.pari" "$IMAGE"
for _ in $(seq 1 100); do
  (( $(count_log 'reload (watch) failed') > WATCH_FAILED_BEFORE )) && break
  sleep 0.05
done
(( $(count_log 'reload (watch) failed') > WATCH_FAILED_BEFORE )) \
    || fail "the watch adopted an image with a flipped route byte"
grep -q 'reload (watch) failed.*checksum mismatch' "$LOG" \
    || fail "the failed adopt was not a checksum mismatch"
kill -0 "$DAEMON_PID" || fail "daemon died on a corrupt image"
expect_route leafb 'mid!leafb!%s'
say "corrupt image refused (old route still serving)"

APPLIED_BEFORE=$(count_log 'reload (SIGHUP) applied')
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  (( $(count_log 'reload (SIGHUP) applied') > APPLIED_BEFORE )) && break
  sleep 0.05
done
(( $(count_log 'reload (SIGHUP) applied') > APPLIED_BEFORE )) \
    || fail "SIGHUP did not republish over the corrupt image"
grep 'reload (SIGHUP) applied' "$LOG" | tail -n 1 | grep -q 'image replaced' \
    || fail "SIGHUP republished but the daemon did not adopt the image"
[[ "$("$ROUTEDB" get "$IMAGE" leafb)" == 'mid!leafb!%s' ]] \
    || fail "the republished image still holds the flipped route"
WATCH_FAILED_AFTER=$(count_log 'reload (watch) failed')
sleep 0.2
(( $(count_log 'reload (watch) failed') == WATCH_FAILED_AFTER )) \
    || fail "the watch still refuses the republished image"
expect_route leafb 'mid!leafb!%s'
say "SIGHUP republished the corrupt image; the daemon adopted it (same pid)"

# --- 8. clean shutdown ---
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited nonzero on SIGTERM"
DAEMON_PID=""
say "clean SIGTERM exit"
say "PASS"
