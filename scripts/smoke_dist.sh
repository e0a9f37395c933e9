#!/usr/bin/env bash
# Distributed sweep chaos smoke test (make smoke-dist, CI job dist-smoke):
# build the binary, launch a coordinator plus two worker processes on
# localhost, submit the same short fig8 spec `make smoke` runs — then,
# mid-sweep, kill -9 one worker (its lease must be re-issued via TTL
# expiry), kill -9 the COORDINATOR itself (a replacement over the same
# store dir must replay the job from the store — stored points count as
# cpr_store hits and are never re-leased — while the submit stream and
# the surviving worker reconnect on their own), kill -TERM the other
# worker (the SIGTERM drain path: it must finish its in-flight lease,
# deregister and exit on its own), and join a replacement worker that
# carries the sweep home. The streamed run's final table must still be
# byte-identical to the single-process engine's output. A re-run of the
# same spec must then complete from the store alone, and the history
# surface must re-assemble the sweep's table and self-diff it clean.
set -eu

GO=${GO:-go}
PORT=${SMOKE_DIST_PORT:-18473}
OBS_PORT=$((PORT + 1))
TOKEN=smoke-dist-token
SPEC_FLAGS="-experiment fig8 -packets 8 -bytes 60 -seed 1 -pool"

TMP=$(mktemp -d)
BIN="$TMP/cprecycle-bench"
PIDS=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== building =="
$GO build -o "$BIN" ./cmd/cprecycle-bench

echo "== starting coordinator + 2 workers on 127.0.0.1:$PORT =="
# Short lease TTL so the kill -9'd worker's lease re-queues within the
# smoke budget instead of the 30s default.
"$BIN" -coordinator "127.0.0.1:$PORT" -store "$TMP/jobs" -token "$TOKEN" \
    -lease-ttl 3s >"$TMP/coord.log" 2>&1 &
COORD=$!
PIDS="$PIDS $COORD"
"$BIN" -worker -join "http://127.0.0.1:$PORT" -token "$TOKEN" >"$TMP/w1.log" 2>&1 &
W1=$!
PIDS="$PIDS $W1"
# Worker 2 also serves its observability side endpoint so the smoke can
# scrape a live worker mid-sweep.
"$BIN" -worker -join "http://127.0.0.1:$PORT" -token "$TOKEN" \
    -obs "127.0.0.1:$OBS_PORT" >"$TMP/w2.log" 2>&1 &
W2=$!
PIDS="$PIDS $W2"

up=0
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
        up=1
        break
    fi
    sleep 0.1
done
if [ "$up" != 1 ]; then
    echo "coordinator never came up" >&2
    cat "$TMP/coord.log" >&2
    exit 1
fi

echo "== submitting distributed job (SSE stream in background) =="
# shellcheck disable=SC2086
"$BIN" -submit -join "http://127.0.0.1:$PORT" -token "$TOKEN" $SPEC_FLAGS \
    >"$TMP/dist.out" 2>"$TMP/submit.log" &
SUBMIT=$!
PIDS="$PIDS $SUBMIT"

dump_logs() {
    cat "$TMP/submit.log" "$TMP/coord.log" "$TMP/coord2.log" "$TMP/w1.log" \
        "$TMP/w2.log" "$TMP/w3.log" 2>/dev/null >&2 || true
}

# wait_points N: block until the SSE consumer has logged >= N completed
# points (or the submit client exits, meaning the sweep settled early).
wait_points() {
    want=$1
    for _ in $(seq 1 600); do
        got=$(grep -c '^point ' "$TMP/submit.log" 2>/dev/null || true)
        [ "${got:-0}" -ge "$want" ] && return 0
        kill -0 "$SUBMIT" 2>/dev/null || return 0
        sleep 0.1
    done
    echo "timed out waiting for $want streamed points" >&2
    dump_logs
    exit 1
}

wait_points 3
echo "== chaos: kill -9 worker 1 (lease abandoned to TTL re-issue) =="
kill -9 "$W1" 2>/dev/null || true

wait_points 6
echo "== scraping /metrics mid-sweep (coordinator + worker 2) =="
# Both scrapes must be valid Prometheus text with real activity: the
# coordinator has granted leases and counts worker 2 as active, and
# worker 2 — the only live worker since w1 died — has completed sweep
# points. promcheck retries absorb
# the scrape-vs-progress race.
"$GO" run ./cmd/promcheck -url "http://127.0.0.1:$PORT/metrics" -token "$TOKEN" \
    -retries 50 \
    -require cpr_dist_leases_granted_total \
    -require cpr_dist_workers || {
    echo "coordinator /metrics scrape failed" >&2
    dump_logs
    exit 1
}
"$GO" run ./cmd/promcheck -url "http://127.0.0.1:$OBS_PORT/metrics" -token "$TOKEN" \
    -retries 50 \
    -require cpr_sweep_points_done_total \
    -require cpr_sweep_packets_total \
    -require cpr_dist_worker_leases_total || {
    echo "worker /metrics scrape failed" >&2
    dump_logs
    exit 1
}
echo "   both expositions parse; lease + point series are live"

echo "== chaos: kill -9 the coordinator mid-sweep (store replay) =="
kill -9 "$COORD" 2>/dev/null || true
"$BIN" -coordinator "127.0.0.1:$PORT" -store "$TMP/jobs" -token "$TOKEN" \
    -lease-ttl 3s >"$TMP/coord2.log" 2>&1 &
COORD2=$!
PIDS="$PIDS $COORD2"
# The replacement coordinator must replay the job from the store index:
# every already-completed point restores as a cpr_store hit instead of
# going back to the fleet. promcheck's retries double as the
# wait-until-restarted loop.
"$GO" run ./cmd/promcheck -url "http://127.0.0.1:$PORT/metrics" -token "$TOKEN" \
    -retries 100 \
    -require cpr_store_hits_total || {
    echo "restarted coordinator reported no store hits (points re-leased instead of restored?)" >&2
    dump_logs
    exit 1
}
echo "   coordinator replaced; stored points restored as store hits"

echo "== chaos: kill -TERM worker 2 (graceful drain) =="
kill -TERM "$W2" 2>/dev/null || true

echo "== joining replacement worker =="
"$BIN" -worker -join "http://127.0.0.1:$PORT" -token "$TOKEN" >"$TMP/w3.log" 2>&1 &
W3=$!
PIDS="$PIDS $W3"

# The drained worker must exit on its own once its in-flight lease is
# done and it has deregistered — no second signal, no kill -9.
drained=0
for _ in $(seq 1 600); do
    if ! kill -0 "$W2" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
if [ "$drained" != 1 ]; then
    echo "drained worker never exited" >&2
    dump_logs
    exit 1
fi
if ! grep -q 'draining' "$TMP/w2.log"; then
    echo "drained worker log is missing the SIGTERM drain message:" >&2
    dump_logs
    exit 1
fi
echo "   worker 2 drained and exited cleanly"

if ! wait "$SUBMIT"; then
    echo "distributed submit failed:" >&2
    dump_logs
    exit 1
fi

points=$(grep -c '^point ' "$TMP/submit.log" || true)
echo "   streamed $points point events"
if [ "$points" != 30 ]; then
    echo "expected 30 SSE point events for the fig8 spec, saw $points:" >&2
    cat "$TMP/submit.log" >&2
    exit 1
fi

echo "== fleet registry after the dust settles =="
"$BIN" -fleet -join "http://127.0.0.1:$PORT" -token "$TOKEN" || true

echo "== running the single-process engine reference =="
# shellcheck disable=SC2086
"$BIN" $SPEC_FLAGS | grep -v -e '^\[' -e '^$' >"$TMP/direct.out"

if ! diff -u "$TMP/direct.out" "$TMP/dist.out"; then
    echo "distributed table differs from the single-engine table" >&2
    exit 1
fi

echo "== re-submitting the identical sweep (must complete from the store) =="
# Content addressing makes the re-run lease-free: every point restores
# from the store, and the table must still be byte-identical.
# shellcheck disable=SC2086
if ! "$BIN" -submit -join "http://127.0.0.1:$PORT" -token "$TOKEN" $SPEC_FLAGS \
    >"$TMP/dist2.out" 2>"$TMP/submit2.log"; then
    echo "store-replay submit failed:" >&2
    cat "$TMP/submit2.log" >&2
    dump_logs
    exit 1
fi
if ! diff -u "$TMP/dist.out" "$TMP/dist2.out"; then
    echo "store-replayed table differs from the first run" >&2
    exit 1
fi

echo "== querying the results-history surface =="
hcurl() { curl -sf -H "Authorization: Bearer $TOKEN" "http://127.0.0.1:$PORT$1"; }
# No jq in CI: the fingerprint is a 32-hex token on its own indented
# JSON line, extractable with sed.
FP=$(hcurl "/v1/history/sweeps?experiment=fig8" |
    sed -n 's/.*"fingerprint": "\([0-9a-f]\{32\}\)".*/\1/p' | head -1)
if [ -z "$FP" ]; then
    echo "history index has no recorded fig8 sweep" >&2
    hcurl "/v1/history/sweeps" >&2 || true
    dump_logs
    exit 1
fi
if ! hcurl "/v1/history/sweeps/$FP/table" >"$TMP/hist.out"; then
    echo "history table endpoint failed for $FP" >&2
    dump_logs
    exit 1
fi
if ! diff -u "$TMP/dist.out" "$TMP/hist.out"; then
    echo "history-reassembled table differs from the live run" >&2
    exit 1
fi
if ! hcurl "/v1/history/diff?a=$FP&b=$FP" | grep -q '"equal": true'; then
    echo "self-diff of sweep $FP reported deltas:" >&2
    hcurl "/v1/history/diff?a=$FP&b=$FP" >&2 || true
    exit 1
fi
"$GO" run ./cmd/promcheck -url "http://127.0.0.1:$PORT/metrics" -token "$TOKEN" \
    -retries 50 \
    -require cpr_history_runs_recorded_total \
    -require cpr_history_queries_total || {
    echo "history metrics missing from coordinator /metrics" >&2
    dump_logs
    exit 1
}
echo "   history table byte-identical, self-diff clean, cpr_history_* live"

echo "== smoke-dist OK: table byte-identical to single engine despite worker kill, coordinator kill -9 + store replay, drain and replacement; store re-run and history surface verified =="
