#!/usr/bin/env bash
# Repo-wide check runner: configure + build, run the test suite, then
# smoke-check the observability surface end to end:
#   1. relspec_cli --stats=FILE emits a JSON snapshot that parses and
#      contains the headline instrumentation (fixpoint rounds, chi
#      hit/miss/lookup invariant, phase spans);
#   2. one benchmark run under RELSPEC_BENCH_METRICS=1 emits a valid
#      single-line {"bench": ..., "metrics": {...}} record on stderr;
#   3. the flag tables in README.md and docs/ agree with the actual
#      --help output of relspec_cli, relspec_bench_serve, bench_compare,
#      and relspecd (docs drift check).
#
# Usage: tools/run_checks.sh [BUILD_DIR]   (default: build)
#        tools/run_checks.sh --tsan [BUILD_DIR]
#        tools/run_checks.sh --asan [BUILD_DIR]
#        tools/run_checks.sh --fuzz [BUILD_DIR]
#        tools/run_checks.sh --bench [BUILD_DIR]
#
# --tsan builds with -DRELSPEC_SANITIZE=thread (default dir: build-tsan) and
# runs the concurrency-sensitive test binaries (task pool, request serving,
# evaluator, fixpoint, engine, event tracer) under ThreadSanitizer, then
# exits. See docs/ARCHITECTURE.md.
#
# --asan builds with -DRELSPEC_SANITIZE=address,undefined (default dir:
# build-asan) and runs the fault-injection suites (failpoint, governor,
# parser), the query, WAL, label-graph, fixpoint, property and engine suites
# under ASan+UBSan: every injected unwind path must be leak- and UB-free, a
# query walk that indexes a successor map out of range must fail, WAL replay
# moves a rebuilt engine's members into the live one once per batch, the chi
# worklist reads child values by reference into its entry table, which
# EntryFor appends to, while Labeling::LabelOf returns a reference into it,
# and a query's own names carry ids past the symbol table's counts, which a
# read that indexes the table with them would overrun. See
# docs/ROBUSTNESS.md.
#
# --fuzz builds the parser/snapshot/WAL/protocol fuzz target
# (-DRELSPEC_FUZZ=ON, default dir: build-fuzz) and runs a 30-second smoke
# over the example-program seeds plus the binary corpora: snapshots
# (tests/fuzz_corpus/snapshots/*.rsnp, RSNP magic → snapshot loader),
# durability (tests/fuzz_corpus/wal/*, RWAL magic → delta-log scanner,
# RCKP magic → checkpoint parser), and the serving protocol
# (tests/fuzz_corpus/serve/*.rsrv, RSRV magic → request/response framers
# and the typed result decoders). Under gcc this is the standalone
# mutation driver; under clang, libFuzzer. Budget override:
# RELSPEC_FUZZ_SECONDS.
#
# --bench builds the serving harness and the perf gate (default dir: build),
# runs a short fixed-seed serve session, and diffs the fresh BENCH_serve.json
# against the committed BENCH_baseline.json with tools/bench_compare. See
# docs/SERVING.md.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--asan" ]]; then
  BUILD_DIR="${2:-build-asan}"
  echo "== asan+ubsan configure + build ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DRELSPEC_SANITIZE=address,undefined \
      -DRELSPEC_BUILD_BENCHMARKS=OFF -DRELSPEC_BUILD_EXAMPLES=OFF \
      -DRELSPEC_WERROR=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
      failpoint_test governor_test parser_test snapshot_test \
      differential_test query_test wal_test spec_test fixpoint_test \
      property_test engine_test
  echo "== asan+ubsan tests =="
  for t in failpoint_test governor_test parser_test snapshot_test \
           differential_test query_test wal_test spec_test fixpoint_test \
           property_test engine_test; do
    echo "-- $t"
    "$BUILD_DIR"/tests/"$t"
  done
  echo "== asan+ubsan checks passed =="
  exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
  BUILD_DIR="${2:-build-fuzz}"
  echo "== fuzz configure + build ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DRELSPEC_FUZZ=ON \
      -DRELSPEC_BUILD_BENCHMARKS=OFF -DRELSPEC_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target fuzz_parser
  echo "== fuzz smoke (seeds: examples/programs/*.rsp + snapshot + WAL + RSRV corpora) =="
  "$BUILD_DIR"/tests/fuzz_parser examples/programs/*.rsp \
      tests/fuzz_corpus/snapshots/*.rsnp \
      tests/fuzz_corpus/wal/* \
      tests/fuzz_corpus/serve/*.rsrv
  echo "== fuzz smoke passed =="
  exit 0
fi

if [[ "${1:-}" == "--bench" ]]; then
  BUILD_DIR="${2:-build}"
  echo "== bench configure + build ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
      relspec_bench_serve --target bench_compare --target trace_check
  echo "== serve session (fixed seed) =="
  SERVE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SERVE_DIR"' EXIT
  "$BUILD_DIR"/tools/relspec_bench_serve \
      --qps 1500 --requests 3000 --clients 2 --seed 42 --population 64 \
      --slow-ms 5 --out "$SERVE_DIR/BENCH_serve.json" \
      --trace-out "$SERVE_DIR/serve_trace.json"
  "$BUILD_DIR"/tools/trace_check "$SERVE_DIR/serve_trace.json" \
      --min-events 10 --require-lane main
  echo "== perf gate vs BENCH_baseline.json =="
  "$BUILD_DIR"/tools/bench_compare BENCH_baseline.json \
      "$SERVE_DIR/BENCH_serve.json" --suite bench_serve
  echo "== bench checks passed =="
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  BUILD_DIR="${2:-build-tsan}"
  echo "== tsan configure + build ($BUILD_DIR) =="
  # -Werror off: gcc's -O1/-fsanitize pipeline emits known false-positive
  # maybe-uninitialized warnings in libstdc++ headers.
  cmake -B "$BUILD_DIR" -S . -DRELSPEC_SANITIZE=thread \
      -DRELSPEC_BUILD_BENCHMARKS=OFF -DRELSPEC_BUILD_EXAMPLES=OFF \
      -DRELSPEC_WERROR=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
      parallel_test serve_test datalog_test fixpoint_test engine_test \
      failpoint_test governor_test differential_test trace_test
  echo "== tsan tests =="
  for t in parallel_test serve_test datalog_test fixpoint_test engine_test \
           failpoint_test governor_test differential_test trace_test; do
    echo "-- $t"
    "$BUILD_DIR"/tests/"$t"
  done
  echo "== tsan checks passed =="
  exit 0
fi

BUILD_DIR="${1:-build}"

# Only pick a generator for a fresh build dir; an existing cache keeps its own.
GENERATOR_FLAGS=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  GENERATOR_FLAGS=(-G Ninja)
fi

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S . "${GENERATOR_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== CLI --stats JSON =="
STATS_FILE="$(mktemp)"
BENCH_ERR_FILE="$(mktemp)"
trap 'rm -f "$STATS_FILE" "$BENCH_ERR_FILE"' EXIT
"$BUILD_DIR"/tools/relspec_cli examples/programs/even.rsp \
    --fact "Even(4)" --prove 0 4 --stats="$STATS_FILE" >/dev/null
python3 - "$STATS_FILE" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

for section in ("counters", "gauges", "histograms", "phases"):
    assert isinstance(snap.get(section), dict), f"missing section {section}"

c = snap["counters"]
assert c.get("fixpoint.rounds", 0) > 0, "no fixpoint rounds recorded"
assert c.get("chi.hits", 0) + c.get("chi.misses", 0) == c.get("chi.lookups"), \
    "chi hit/miss/lookup invariant violated"
assert c.get("uf.finds", 0) > 0, "no union-find activity recorded"
for phase in ("engine.build", "fixpoint", "algorithm_q"):
    assert snap["phases"].get(phase, {}).get("count", 0) >= 1, \
        f"phase {phase} missing"
print(f"stats OK: {len(c)} counters, {len(snap['phases'])} phases")
EOF

echo "== bench metrics line =="
RELSPEC_BENCH_METRICS=1 "$BUILD_DIR"/bench/bench_fixpoint \
    --benchmark_filter='BM_Fixpoint_ChiEntries_Rotation/8$' \
    --benchmark_min_time=0.01 >/dev/null 2>"$BENCH_ERR_FILE"
python3 - "$BENCH_ERR_FILE" <<'EOF'
import json, sys

records = []
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line.startswith('{"bench"'):
            continue
        rec = json.loads(line)
        assert "bench" in rec and "metrics" in rec, f"bad record: {rec}"
        assert rec["metrics"]["counters"].get("fixpoint.rounds", 0) > 0
        records.append(rec["bench"])
assert records, "no bench metrics line found on stderr"
print(f"bench metrics OK: {sorted(set(records))}")
EOF

echo "== docs drift check =="
HELP_FILE="$(mktemp)"
SERVE_HELP_FILE="$(mktemp)"
COMPARE_HELP_FILE="$(mktemp)"
DAEMON_HELP_FILE="$(mktemp)"
TAIL_HELP_FILE="$(mktemp)"
trap 'rm -f "$STATS_FILE" "$BENCH_ERR_FILE" "$HELP_FILE" \
    "$SERVE_HELP_FILE" "$COMPARE_HELP_FILE" "$DAEMON_HELP_FILE" \
    "$TAIL_HELP_FILE"' EXIT
"$BUILD_DIR"/tools/relspec_cli --help > "$HELP_FILE"
"$BUILD_DIR"/tools/relspec_bench_serve --help > "$SERVE_HELP_FILE"
"$BUILD_DIR"/tools/bench_compare --help > "$COMPARE_HELP_FILE"
"$BUILD_DIR"/tools/relspecd --help > "$DAEMON_HELP_FILE"
"$BUILD_DIR"/tools/relspec_tail --help > "$TAIL_HELP_FILE"
python3 - "$HELP_FILE" "$SERVE_HELP_FILE" "$COMPARE_HELP_FILE" \
    "$DAEMON_HELP_FILE" "$TAIL_HELP_FILE" README.md docs/*.md <<'EOF'
import re, sys

help_text = open(sys.argv[1]).read()
help_flags = set(re.findall(r"--[a-z][a-z_-]*", help_text))
# The serving harness, perf gate, daemon, and live tail have their own
# --help; docs may reference any flag from the five tools' combined surface.
serve_flags = set(re.findall(r"--[a-z][a-z_-]*", open(sys.argv[2]).read()))
compare_flags = set(re.findall(r"--[a-z][a-z_-]*", open(sys.argv[3]).read()))
daemon_flags = set(re.findall(r"--[a-z][a-z_-]*", open(sys.argv[4]).read()))
tail_flags = set(re.findall(r"--[a-z][a-z_-]*", open(sys.argv[5]).read()))

# Flags that legitimately appear in the docs but belong to other tools
# (google-benchmark, ctest, cmake, this script) or are flag *prefixes*.
WHITELIST = {
    "--benchmark_filter", "--benchmark_min_time", "--benchmark_repetitions",
    "--benchmark_format", "--benchmark_out", "--gtest_filter",
    "--output-on-failure", "--test-dir", "--tsan", "--asan", "--fuzz",
    "--build", "--target",
    # tools/trace_check flags (documented in OBSERVABILITY.md):
    "--min-events", "--require-lane",
    # run_checks.sh's own mode flag (documented in docs/SERVING.md):
    "--bench",
}

all_tool_flags = (help_flags | serve_flags | compare_flags | daemon_flags
                  | tail_flags)
problems = []
doc_flags = set()
for path in sys.argv[6:]:
    text = open(path).read()
    for flag in set(re.findall(r"--[a-z][a-z_-]*", text)):
        if flag in WHITELIST:
            continue
        doc_flags.add(flag)
        if flag not in all_tool_flags:
            problems.append(f"{path} documents {flag}, absent from every "
                            "tool's --help")

# Every CLI flag must be documented in README.md (the flag table).
readme = open(sys.argv[6]).read()
for flag in sorted(help_flags - {"--help"}):
    if flag not in readme:
        problems.append(f"--help lists {flag}, absent from README.md")

# Every serving-harness / perf-gate flag must appear in docs/SERVING.md.
serving = open("docs/SERVING.md").read()
for flag in sorted((serve_flags | compare_flags) - {"--help"}):
    if flag not in serving:
        problems.append(f"tool --help lists {flag}, absent from "
                        "docs/SERVING.md")

# The incremental-update surface (paper Section 5) must be documented in
# docs/INCREMENTAL.md: every delta/warm-start CLI flag, plus the serving
# harness's update request type. The list below is pinned on purpose — a
# flag dropped from --help without being dropped here is also drift.
incremental = open("docs/INCREMENTAL.md").read()
DELTA_FLAGS = {"--apply-deltas", "--load-snapshot", "--save-snapshot"}
for flag in sorted(DELTA_FLAGS):
    if flag not in help_flags:
        problems.append(f"docs-drift list pins {flag}, absent from the "
                        "CLI's --help")
    if flag not in incremental:
        problems.append(f"delta flag {flag} absent from docs/INCREMENTAL.md")
# The durability surface (docs/DURABILITY.md) is pinned the same way:
# every WAL CLI flag must exist in --help and be documented there, and
# the serve harness must keep its durable-update mode.
durability = open("docs/DURABILITY.md").read()
DURABLE_FLAGS = {"--wal", "--fsync", "--checkpoint-every", "--recover"}
for flag in sorted(DURABLE_FLAGS):
    if flag not in help_flags:
        problems.append(f"docs-drift list pins {flag}, absent from the "
                        "CLI's --help")
    if flag not in durability:
        problems.append(f"WAL flag {flag} absent from docs/DURABILITY.md")
for flag in sorted(DURABLE_FLAGS - {"--recover"}):
    if flag not in serve_flags:
        problems.append(f"serve --help no longer lists {flag} (durable "
                        "update mode)")

if "update=" not in open(sys.argv[2]).read():
    problems.append("serve --help no longer documents the update request "
                    "type (mix update=N)")
if "update" not in incremental:
    problems.append("serve update request type absent from "
                    "docs/INCREMENTAL.md")

# The daemon surface (docs/DAEMON.md) is pinned the same way: every
# relspecd flag must appear in docs/DAEMON.md, the daemon-only flags in
# the list below must keep existing in relspecd --help, and the serve
# harness must keep its --connect daemon-replay mode.
daemon_doc = open("docs/DAEMON.md").read()
for flag in sorted(daemon_flags - {"--help"}):
    if flag not in daemon_doc:
        problems.append(f"relspecd --help lists {flag}, absent from "
                        "docs/DAEMON.md")
DAEMON_FLAGS = {"--socket", "--tcp-port", "--threads", "--rotation",
                "--ping", "--cache-entries", "--cache-bytes",
                "--deadline-ms", "--max-tuples", "--wal", "--fsync",
                "--checkpoint-every", "--load-snapshot",
                "--slowlog-ms", "--slowlog-sample", "--slowlog-out",
                "--reply-timing"}
for flag in sorted(DAEMON_FLAGS):
    if flag not in daemon_flags:
        problems.append(f"docs-drift list pins {flag}, absent from "
                        "relspecd --help")
if "--connect" not in serve_flags:
    problems.append("serve --help no longer lists --connect (daemon "
                    "replay mode)")
if "--connect" not in daemon_doc:
    problems.append("--connect replay absent from docs/DAEMON.md")

# The observability surface (docs/OPERATIONS.md) is pinned the same way:
# every relspec_tail flag and every slow-log / telemetry daemon flag must
# be documented there, and the tail tool must keep its one-shot modes.
operations = open("docs/OPERATIONS.md").read()
for flag in sorted(tail_flags - {"--help"}):
    if flag not in operations:
        problems.append(f"relspec_tail --help lists {flag}, absent from "
                        "docs/OPERATIONS.md")
TAIL_FLAGS = {"--interval-ms", "--count", "--prometheus", "--health",
              "--slowlog"}
for flag in sorted(TAIL_FLAGS):
    if flag not in tail_flags:
        problems.append(f"docs-drift list pins {flag}, absent from "
                        "relspec_tail --help")
SLOWLOG_FLAGS = {"--slowlog-ms", "--slowlog-sample", "--slowlog-out",
                 "--reply-timing"}
for flag in sorted(SLOWLOG_FLAGS):
    if flag not in operations:
        problems.append(f"telemetry flag {flag} absent from "
                        "docs/OPERATIONS.md")

for p in problems:
    print("DRIFT:", p, file=sys.stderr)
if problems:
    sys.exit(1)
print(f"docs drift OK: {len(help_flags)} CLI flags, "
      f"{len(serve_flags | compare_flags)} serve/gate flags, "
      f"{len(daemon_flags)} daemon flags, "
      f"{len(tail_flags)} tail flags, "
      f"{len(doc_flags)} doc mentions consistent")
EOF

echo "== all checks passed =="
