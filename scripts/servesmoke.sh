#!/bin/sh
# servesmoke: end-to-end smoke test of the resident counting service.
#
# Builds cncd and cncload, starts the daemon on an ephemeral port with a
# tiny profile, exercises every query endpoint (edge/pair/topk/count/
# sample/info) plus the mounted observability plane, checks the result
# cache reports MISS then HIT and that the serving counters surface on
# /metrics, runs a short cncload burst and validates its benchfmt
# report, then SIGTERMs the daemon and requires a clean drain (exit 0).
# Exits non-zero on any failure. Run from the repo root (the Makefile's
# `make servesmoke` does).
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
CNCD_PID=""

fail() {
	echo "servesmoke: FAIL: $*" >&2
	[ -f "$TMP/cncd.log" ] && sed 's/^/servesmoke:   cncd: /' "$TMP/cncd.log" >&2
	exit 1
}

cleanup() {
	[ -n "$CNCD_PID" ] && kill "$CNCD_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

$GO build -o "$TMP/cncd" ./cmd/cncd
$GO build -o "$TMP/cncload" ./cmd/cncload

"$TMP/cncd" -profile WI -scale 0.05 -listen 127.0.0.1:0 -threads 1 \
	>"$TMP/cncd.log" 2>&1 &
CNCD_PID=$!

# Wait for the ready line carrying the bound address.
ADDR=""
i=0
while [ $i -lt 300 ]; do
	ADDR=$(sed -n 's/^cncd listening on \(.*\)$/\1/p' "$TMP/cncd.log")
	[ -n "$ADDR" ] && break
	kill -0 "$CNCD_PID" 2>/dev/null || fail "cncd exited before listening"
	i=$((i + 1))
	sleep 0.1
done
[ -n "$ADDR" ] || fail "cncd address never appeared"

# /healthz via the mounted obs plane.
HEALTH=$(curl -fsS "http://$ADDR/healthz") || fail "/healthz unreachable"
[ "$HEALTH" = "ok" ] || fail "/healthz = '$HEALTH', want 'ok'"

# /v1/info: the daemon knows its graph.
curl -fsS "http://$ADDR/v1/info" >"$TMP/info.json" || fail "/v1/info unreachable"
grep -q '"graph":"WI"' "$TMP/info.json" || fail "/v1/info lacks the graph name"
grep -q '"epoch":1' "$TMP/info.json" || fail "/v1/info epoch != 1"

# /v1/sample feeds a real edge for the point queries.
curl -fsS "http://$ADDR/v1/sample?n=4" >"$TMP/sample.json" || fail "/v1/sample unreachable"
U=$(sed -n 's/.*"edges":\[\[\([0-9]*\),.*/\1/p' "$TMP/sample.json")
V=$(sed -n 's/.*"edges":\[\[[0-9]*,\([0-9]*\).*/\1/p' "$TMP/sample.json")
[ -n "$U" ] && [ -n "$V" ] || fail "/v1/sample returned no parseable edge"

# /v1/edge: MISS on the first query, HIT on the repeat, same body.
curl -fsS -D "$TMP/h1" "http://$ADDR/v1/edge?u=$U&v=$V" >"$TMP/e1.json" || fail "/v1/edge unreachable"
grep -qi '^x-cache: MISS' "$TMP/h1" || fail "first /v1/edge not a cache MISS"
curl -fsS -D "$TMP/h2" "http://$ADDR/v1/edge?u=$U&v=$V" >"$TMP/e2.json" || fail "/v1/edge repeat failed"
grep -qi '^x-cache: HIT' "$TMP/h2" || fail "repeat /v1/edge not a cache HIT"
cmp -s "$TMP/e1.json" "$TMP/e2.json" || fail "cached /v1/edge body differs from computed"
grep -q '"count":' "$TMP/e1.json" || fail "/v1/edge lacks a count"

# /v1/pair and /v1/topk answer.
curl -fsS "http://$ADDR/v1/pair?u=$U&v=$V" | grep -q '"count":' || fail "/v1/pair lacks a count"
curl -fsS "http://$ADDR/v1/topk?u=$U&k=3" | grep -q '"results":' || fail "/v1/topk lacks results"

# /v1/count: a full recount multiplexed onto the runtime.
curl -fsS "http://$ADDR/v1/count?algo=bmp&workers=1" >"$TMP/count.json" || fail "/v1/count unreachable"
grep -q '"triangles":' "$TMP/count.json" || fail "/v1/count lacks a triangle count"

# Each serving number has one source: the cache counts its hits and
# misses (served on /v1/info), the RED histograms on the shared /metrics
# count requests.
curl -fsS "http://$ADDR/v1/info" >"$TMP/info.json" || fail "/v1/info unreachable"
for field in cache_hits cache_misses; do
	grep -q "\"$field\":[1-9]" "$TMP/info.json" || fail "/v1/info reports no $field"
done
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.prom" || fail "/metrics unreachable"
grep -qF 'cncd_request_duration_seconds_count{endpoint="edge",' "$TMP/metrics.prom" \
	|| fail "/metrics lacks the edge request count"

# A short load burst writes a valid serving report.
"$TMP/cncload" -addr "$ADDR" -duration 1s -concurrency 4 \
	-mix edge=8,pair=1,topk=1 -sample 64 -label smoke \
	-out "$TMP/BENCH_servesmoke.json" >"$TMP/load.out" 2>&1 \
	|| fail "cncload run failed: $(cat "$TMP/load.out")"
grep -q 'req/s' "$TMP/load.out" || fail "cncload printed no throughput"
grep -q '"schema": "cncount-bench/v1"' "$TMP/BENCH_servesmoke.json" || fail "load report lacks the schema"
grep -q '"graph": "serve/edge"' "$TMP/BENCH_servesmoke.json" || fail "load report lacks the serve/edge row"
grep -q '"task_p99_nanos"' "$TMP/BENCH_servesmoke.json" || fail "load report lacks p99 latency"

# SIGTERM drains cleanly: exit status 0 and the drain log line.
kill -TERM "$CNCD_PID"
DRAIN_RC=0
wait "$CNCD_PID" || DRAIN_RC=$?
CNCD_PID=""
[ "$DRAIN_RC" -eq 0 ] || fail "cncd drain exited $DRAIN_RC"
grep -q "drained, exiting" "$TMP/cncd.log" || fail "cncd never logged a completed drain"

echo "servesmoke: ok (served http://$ADDR/)"
