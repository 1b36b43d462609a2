#!/usr/bin/env bash
# Regenerates BENCH_baseline.json — the committed perf baseline the CI perf
# gate (tools/bench_compare) diffs fresh runs against. See docs/SERVING.md.
#
# Usage: tools/regen_baseline.sh [BUILD_DIR]   (default: build)
#
# Eleven suites:
#   bench_query  representative E18 microbenchmarks (cache, snapshot warm
#                start) and E37's one-atom membership query parse from
#                bench/bench_query.cc
#   bench_trace  representative E19 tracer-ablation numbers from
#                bench/bench_trace.cc
#   bench_delta  representative E21 fact-delta numbers (delta apply vs
#                full recompute, noop batch) from
#                bench/bench_delta.cc
#   bench_wal    representative E22 durability numbers from
#                bench/bench_wal.cc — only the fsync-free paths (append,
#                scan, durable update with fsync=off, recovery): device
#                sync latency on shared runners is too noisy to gate
#   bench_slowlog  E28 slow-query audit log ablation (recording disabled /
#                sampled / always-on / full-ring JSONL dump) from
#                bench/bench_slowlog.cc
#   bench_graph_spec  E24 Algorithm Q, E29 snapshot save and E38 the label
#                graph copy on a 512-state counter chain, and E40 the whole
#                graph specification's copy on a 420-team rotation, from
#                bench/bench_graph_spec.cc
#   bench_fixpoint  E26 the chi worklist (ComputeFixpoint alone) on the same
#                chain, and E28 the counter-indexed closure on a 420-team
#                rotation, from bench/bench_fixpoint.cc
#   bench_transform  E32 the front end (parse, normalize, purify, ground)
#                on counter(9) and mixed(18), E37 the parse alone on
#                counter(9) and rotation(420), and E40 Ground alone on
#                rotation(420), from bench/bench_transform.cc
#   bench_serve  a fixed-seed serving session from relspec_bench_serve
#                (the same flags the CI perf job uses)
#   bench_serve_durable  the same schedule served through per-lane WALs
#                (update mix, fsync=batch, checkpoint rotation) — the CI
#                durable replay, which also recovery-checks every lane
#   bench_serve_daemon  the update-free schedule replayed over the RSRV
#                socket against a live relspecd (--connect), so the gate
#                also covers the wire protocol + daemon dispatch overhead
#
# Thresholds are deliberately generous (default 3.0 = 4x allowed) because
# CI runs on shared 1-core containers where absolute times swing wildly;
# the gate exists to catch order-of-magnitude regressions, not 10% drifts.
# Suite filters and thresholds are defined once, in tools/bench_suites.py.
# Rerun this script on the reference machine and commit the result whenever
# an intentional perf change lands.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
    bench_query --target bench_trace --target bench_delta \
    --target bench_wal --target bench_slowlog --target bench_graph_spec \
    --target bench_fixpoint --target bench_transform \
    --target relspec_bench_serve --target relspecd \
    >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for suite in bench_query bench_trace bench_delta bench_wal bench_slowlog \
    bench_graph_spec bench_fixpoint bench_transform; do
  echo "== $suite =="
  python3 tools/bench_suites.py run "$BUILD_DIR" "$suite" "$TMP/$suite.json"
done

echo "== bench_serve =="
"$BUILD_DIR"/tools/relspec_bench_serve \
    --qps 1500 --requests 3000 --clients 2 --seed 42 --population 64 \
    --slow-ms 5 --out "$TMP/serve.json"

echo "== bench_serve_durable =="
"$BUILD_DIR"/tools/relspec_bench_serve \
    --qps 1500 --requests 1500 --clients 2 --seed 42 --population 64 \
    --slow-ms 5 \
    --mix membership=40,cached=25,uncached=10,snapshot=5,update=20 \
    --wal "$TMP/serve_wal" --fsync batch --checkpoint-every 64 \
    --suite-name bench_serve_durable --out "$TMP/serve_durable.json"

echo "== bench_serve_daemon =="
"$BUILD_DIR"/tools/relspecd --rotation 8 --socket "$TMP/daemon.sock" \
    >"$TMP/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 100); do
  [ -S "$TMP/daemon.sock" ] && break
  sleep 0.1
done
"$BUILD_DIR"/tools/relspec_bench_serve \
    --qps 1500 --requests 1500 --clients 2 --seed 42 --population 64 \
    --slow-ms 5 --connect "$TMP/daemon.sock" \
    --suite-name bench_serve_daemon --out "$TMP/serve_daemon.json"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"

python3 tools/bench_suites.py baseline BENCH_baseline.json \
    "$TMP/bench_query.json" "$TMP/bench_trace.json" "$TMP/bench_delta.json" \
    "$TMP/bench_wal.json" "$TMP/bench_slowlog.json" \
    "$TMP/bench_graph_spec.json" "$TMP/bench_fixpoint.json" \
    "$TMP/bench_transform.json" "$TMP/serve.json" \
    "$TMP/serve_durable.json" "$TMP/serve_daemon.json"
