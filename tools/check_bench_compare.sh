#!/usr/bin/env bash
# CTest driver for the bench_compare exit-code contract (docs/SERVING.md):
# 0 within thresholds, 1 regression, 2 for missing suites / malformed JSON /
# usage errors. Improvements never gate.
#
# Usage: check_bench_compare.sh COMPARE_BINARY
set -u

compare="$1"

fail() { echo "FAIL: $*" >&2; exit 1; }

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

cat > "$tmpdir/base.json" <<'EOF'
{"schema": "relspec-bench-v1", "suites": {"s": {
  "thresholds": {"default": 0.10, "tput": 0.20},
  "metrics": {
    "lat_ns":  {"value": 1000, "dir": "lower"},
    "tput":    {"value": 500,  "dir": "higher"},
    "zero":    {"value": 0,    "dir": "lower"}}}}}
EOF

mkjson() {  # mkjson FILE lat tput
  cat > "$1" <<EOF
{"schema": "relspec-bench-v1", "suites": {"s": {
  "thresholds": {"default": 0.10, "tput": 0.20},
  "metrics": {
    "lat_ns":  {"value": $2, "dir": "lower"},
    "tput":    {"value": $3, "dir": "higher"},
    "zero":    {"value": 7,  "dir": "lower"},
    "extra":   {"value": 1,  "dir": "lower"}}}}}
EOF
}

# Within thresholds: +5% latency (allowed 10%), -10% throughput (allowed
# 20%). The zero-baseline metric is skipped, the new metric doesn't gate.
mkjson "$tmpdir/ok.json" 1050 450
"$compare" "$tmpdir/base.json" "$tmpdir/ok.json" >/dev/null \
  || fail "within-threshold diff must exit 0"

# Reports carry the configuration they ran under (tools/bench_suites.py and
# relspec_bench_serve record the same fields); bench_compare skips it, so it
# neither gates nor breaks the diff.
config='"config": {"CMAKE_BUILD_TYPE": "Release", "CMAKE_CXX_COMPILER": "\/usr\/bin\/c++", "CMAKE_CXX_COMPILER_VERSION": "12.2.0", "cpu_count": 4, "cpu_model": "Intel(R) Xeon(R) CPU @ 2.20GHz"},'
sed "s/^{/{$config/" "$tmpdir/base.json" > "$tmpdir/base_config.json"
sed "s/^{/{$config/" "$tmpdir/ok.json" > "$tmpdir/ok_config.json"
"$compare" "$tmpdir/base_config.json" "$tmpdir/ok_config.json" >/dev/null \
  || fail "reports with a config record must compare like those without"

# The reports' build type is the effective one: under the documented
# default configure (no -DCMAKE_BUILD_TYPE), tools/bench_suites.py must read
# RelWithDebInfo from the build's CMakeCache.txt, not an empty string.
build_dir="$(cd "$(dirname "$compare")/.." && pwd)"
tools_dir="$(cd "$(dirname "$0")" && pwd)"
build_type=$(python3 -c 'import sys; sys.path.insert(0, sys.argv[1]); import bench_suites; print(bench_suites.build_config(sys.argv[2])["CMAKE_BUILD_TYPE"])' \
    "$tools_dir" "$build_dir") \
  || fail "tools/bench_suites.py build_config failed on $build_dir"
[ -n "$build_type" ] \
  || fail "bench reports would record an empty CMAKE_BUILD_TYPE for $build_dir"

# Latency regression: +30% > 10%.
mkjson "$tmpdir/lat.json" 1300 500
"$compare" "$tmpdir/base.json" "$tmpdir/lat.json" >/dev/null
[ $? -eq 1 ] || fail "latency regression must exit 1"

# Throughput regression: -40% on a higher-is-better metric.
mkjson "$tmpdir/tput.json" 1000 300
"$compare" "$tmpdir/base.json" "$tmpdir/tput.json" >/dev/null
[ $? -eq 1 ] || fail "throughput regression must exit 1"

# Improvement in a lower-is-better metric must never gate, no matter how
# large.
mkjson "$tmpdir/better.json" 10 5000
"$compare" "$tmpdir/base.json" "$tmpdir/better.json" >/dev/null \
  || fail "improvement must exit 0"

# CLI overrides tighten the report's own thresholds.
"$compare" "$tmpdir/base.json" "$tmpdir/ok.json" --threshold lat_ns=0.01 \
    >/dev/null
[ $? -eq 1 ] || fail "--threshold override must turn +5% into a regression"
"$compare" "$tmpdir/base.json" "$tmpdir/lat.json" --default-threshold 0.5 \
    >/dev/null \
  || fail "--default-threshold 0.5 must absorb a +30% change"

# A suite missing from the baseline is a hard error (exit 2), not a pass.
cat > "$tmpdir/other.json" <<'EOF'
{"suites": {"unrelated": {"metrics": {"m": {"value": 1, "dir": "lower"}}}}}
EOF
"$compare" "$tmpdir/other.json" "$tmpdir/ok.json" 2>/dev/null
[ $? -eq 2 ] || fail "missing baseline suite must exit 2"
"$compare" "$tmpdir/base.json" "$tmpdir/ok.json" --suite nope 2>/dev/null
[ $? -eq 2 ] || fail "--suite not in CURRENT must exit 2"

# Malformed JSON and unreadable files are exit 2.
echo '{"suites": {' > "$tmpdir/bad.json"
"$compare" "$tmpdir/bad.json" "$tmpdir/ok.json" 2>/dev/null
[ $? -eq 2 ] || fail "malformed baseline must exit 2"
"$compare" "$tmpdir/base.json" "$tmpdir/bad.json" 2>/dev/null
[ $? -eq 2 ] || fail "malformed current must exit 2"
"$compare" "$tmpdir/missing.json" "$tmpdir/ok.json" 2>/dev/null
[ $? -eq 2 ] || fail "unreadable baseline must exit 2"

echo "PASS: bench_compare exit-code contract holds"
