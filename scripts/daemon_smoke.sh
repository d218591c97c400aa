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
#   5d. foreign-id image + watch     `routedb freeze` republishes the same routes,
#                                    interned in another order (sorted pathalias
#                                    output); the watch adopts it and every name
#                                    must answer as `routedb batch` over it does
#   6. routedb query                 assert the NEW route, under the SAME daemon pid
#   7. SIGTERM                       clean exit (status 0) with stats on stderr
#
# The daemon's stderr goes to <workdir>/daemon.log.  Each of the five rollovers
# (5a, 5b, 5c's watch and 5c's SIGHUP, 5d) must log an applied reload; 5d's
# must read `image replaced`, the detail of an adopt into the serving engine.
#
# Usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]
# The pathalias binary is taken from routedb's directory.
# Exits nonzero on the first broken step.

set -euo pipefail

SMOKE=daemon_smoke
source "$(dirname "$0")/smoke_common.sh"
PATHALIAS="$(dirname "$ROUTEDB")/pathalias"

# --- 1. build the image from a four-file map (leafc reachable via far, and a
# domain behind mid) ---
printf 'hub\tmid(100), far(400)\n' > "$DIR/core.map"
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
printf 'mid\t.rutgers.edu(10)\n.rutgers.edu\tcaip(0), topaz(0)\n' > "$DIR/edu.map"
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map" "$DIR/edu.map"
say "image built: $IMAGE"

# --- 2. start the daemon; --ready-fd replaces sleep-and-hope ---
"$ROUTEDBD" --image "$IMAGE" --unix "$SOCK" \
    --map "$DIR/core.map" --map "$DIR/mid.map" --map "$DIR/far.map" --map "$DIR/edu.map" \
    --watch-interval 50 --ready-fd 3 3>"$READY" 2>"$LOG" &
DAEMON_PID=$!
wait_ready
say "daemon up (pid $DAEMON_PID)"

# --- 3. resolve through the daemon ---
expect_route leafc 'far!leafc!%s'
expect_route leafa 'mid!leafa!%s'

# --- 4+5a. re-home leafc onto mid, SIGHUP, expect the new route ---
printf 'mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n' > "$DIR/mid.map"
printf 'far\thub(400)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
wait_for_route leafc 'mid!leafc!%s'
say "SIGHUP rollover applied"

# --- 5b. external update + file-watch rollover (leafc back onto far) ---
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update "$IMAGE" "$DIR/mid.map" "$DIR/far.map"
wait_for_route leafc 'far!leafc!%s'
say "file-watch rollover applied"

# --- 5c. an external update adds newa; then a map edit and SIGHUP, which loads
# the state dir and compiles once.  Every name, asked once before the reload,
# must match the image on disk after it. ---
printf 'hub\tmid(100), far(400), newa(1)\n' > "$DIR/core.map"
"$ROUTEDB" update "$IMAGE" "$DIR/core.map"
wait_for_route newa 'newa!%s'
NAMES=(hub mid far newa leafa leafb leafc leafz .edu .rutgers.edu
       caip.rutgers.edu topaz.rutgers.edu)
# (query exits 1 when any name misses; the diff below checks every answer.)
"$ROUTEDB" query --socket "$SOCK" --timeout 2000 "${NAMES[@]}" > /dev/null || true
printf 'mid\tleafz(5)\n' >> "$DIR/mid.map"
kill -HUP "$DAEMON_PID"
wait_for_route leafz 'mid!leafz!%s'
# Every name of NAMES, answered by the daemon, against `routedb batch` on the image.
expect_answers_like_image() {
  { "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "${NAMES[@]}" || true; } \
      | cut -f1,2 > "$DIR/served.txt"
  printf '%s\n' "${NAMES[@]}" | "$ROUTEDB" batch "$IMAGE" > "$DIR/on_disk.txt" 2>/dev/null
  diff "$DIR/on_disk.txt" "$DIR/served.txt" \
      || fail "after $1 the daemon answers differ from routedb batch on the image"
}
expect_answers_like_image "SIGHUP"
say "SIGHUP after an external update answers like the image on disk"

# --- 5d. republish the served routes, interned in another order: sorted
# pathalias output through `routedb freeze`, which renames it over the image.
# The watch adopts it into the serving engine, which answers every name as the
# new image does. ---
"$PATHALIAS" -c -l hub "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map" "$DIR/edu.map" \
    | LC_ALL=C sort > "$DIR/sorted.txt"
"$ROUTEDB" freeze "$DIR/sorted.txt" "$IMAGE"
for _ in $(seq 1 100); do
  [[ "$(grep -c 'reload (.*) applied' "$LOG")" == 5 ]] && break
  sleep 0.05
done
tail -n 1 "$LOG" | grep -q 'reload (watch) applied: image replaced$' \
    || fail "the watch did not adopt the foreign-id image into the serving engine"
expect_answers_like_image "a foreign-id image"
say "a foreign-id image adopts into the serving engine and answers like the image on disk"

# Queries kept flowing the whole time against one daemon process.
kill -0 "$DAEMON_PID" || fail "daemon restarted somewhere along the way"

# Every rollover was applied.
APPLIED=$(grep -c 'reload (.*) applied' "$LOG" || true)
[[ "$APPLIED" == 5 ]] || fail "expected 5 applied rollovers in $LOG, saw $APPLIED"
sed 's/^/daemon_smoke: log: /' "$LOG"
say "all five rollovers applied"

# --- 7. clean shutdown ---
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited nonzero on SIGTERM"
DAEMON_PID=""
say "clean SIGTERM exit"
say "PASS"
