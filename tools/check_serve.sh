#!/usr/bin/env bash
# CTest driver for the serving-SLO harness contract (docs/SERVING.md).
#
# Usage: check_serve.sh SERVE_BINARY COMPARE_BINARY MODE [TRACE_CHECK_BINARY]
#
# MODE determinism: two runs with the same seed must produce byte-identical
#   --dump-requests schedules and matching request_seq_hash / answers_hash,
#   and the report must carry non-zero p50/p95/p99 latency percentiles.
# MODE trace: a run with --trace-out and --slow-ms 0 (every request counts
#   as slow) must emit a timeline that trace_check accepts, containing
#   slow_request instants.
# MODE breach: under a per-request --request-max-tuples budget, breaches are
#   reported as error replies in the JSON summary ("requests.breaches" > 0)
#   with exit 0 — never as a process resource exit; a --deadline-ms run must
#   also exit 0 with a well-formed report.
# MODE gate: bench_compare on the report against itself exits 0, and a
#   synthetic +50% p99 regression exits 1 under --threshold p99_ns=0.2.
# MODE daemon: COMPARE_BINARY carries relspecd instead. The daemon replay
#   (--connect) of the update-free default mix must reproduce the in-process
#   answers_hash bit-for-bit, and the daemon's --trace-out timeline, written
#   on its SIGTERM drain, must carry the main lane and the worker-1 lane of
#   its request pool; then a durable daemon is killed -9 after an update
#   replay and its recovered fingerprint (relspecd --ping) must match the
#   pre-kill one — acked updates survive the crash.
set -u

serve="$1"
compare="$2"
mode="$3"
trace_check="${4:-}"

fail() { echo "FAIL: $*" >&2; exit 1; }

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Short, load-light flags so the check is stable on busy CI runners: the
# contract under test is determinism/reporting, not throughput.
common=(--qps 1500 --requests 600 --clients 2 --seed 7 --population 32)

case "$mode" in
  determinism)
    "$serve" "${common[@]}" --out "$tmpdir/a.json" \
        --dump-requests "$tmpdir/a.txt" >/dev/null 2>&1 \
      || fail "first serve run failed"
    "$serve" "${common[@]}" --out "$tmpdir/b.json" \
        --dump-requests "$tmpdir/b.txt" >/dev/null 2>&1 \
      || fail "second serve run failed"
    cmp -s "$tmpdir/a.txt" "$tmpdir/b.txt" \
      || fail "--dump-requests schedules differ for the same seed"
    python3 - "$tmpdir/a.json" "$tmpdir/b.json" <<'EOF' || exit 1
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
if a["request_seq_hash"] != b["request_seq_hash"]:
    sys.exit("FAIL: request_seq_hash differs for the same seed")
if a["answers_hash"] != b["answers_hash"]:
    sys.exit("FAIL: answers_hash differs for the same seed")
lat = a["latency_ns"]
for q in ("p50", "p95", "p99"):
    if lat[q] <= 0:
        sys.exit(f"FAIL: latency {q} is zero")
if lat["p50"] > lat["p95"] or lat["p95"] > lat["p99"]:
    sys.exit("FAIL: percentiles are not monotone")
if a["requests"]["total"] != 600:
    sys.exit("FAIL: wrong total request count")
EOF
    echo "PASS: schedule + hashes deterministic, percentiles non-zero"
    ;;
  trace)
    [ -n "$trace_check" ] || fail "trace mode needs TRACE_CHECK_BINARY"
    # --slow-ms 0 marks every request slow (latency from the scheduled
    # arrival is strictly positive), so the assertion is load-independent.
    "$serve" "${common[@]}" --slow-ms 0 --out "$tmpdir/r.json" \
        --trace-out "$tmpdir/t.json" >/dev/null 2>&1 \
      || fail "serve run with --trace-out failed"
    "$trace_check" "$tmpdir/t.json" --min-events 10 --require-lane main \
      || fail "serve trace failed validation"
    grep -q "slow_request" "$tmpdir/t.json" \
      || fail "trace has no slow_request instants despite --slow-ms 0"
    python3 - "$tmpdir/r.json" <<'EOF' || exit 1
import json, sys
r = json.load(open(sys.argv[1]))
if r["requests"]["slow"] <= 0:
    sys.exit("FAIL: report counted no slow requests despite --slow-ms 0")
EOF
    echo "PASS: serve trace validates, slow_request instants present"
    ;;
  breach)
    # Deterministic budget breach: an all-uncached mix where full-projection
    # answers exceed a 2-tuple budget.
    "$serve" "${common[@]}" --mix uncached=1 --request-max-tuples 2 \
        --out "$tmpdir/r.json" >/dev/null 2>&1
    code=$?
    [ "$code" -eq 0 ] || fail "breach run must exit 0, got $code"
    python3 - "$tmpdir/r.json" <<'EOF' || exit 1
import json, sys
r = json.load(open(sys.argv[1]))["requests"]
if r["breaches"] <= 0:
    sys.exit("FAIL: no breaches recorded under --request-max-tuples 2")
if r["errors"] < r["breaches"]:
    sys.exit("FAIL: breaches not counted as error replies")
if r["ok"] + r["errors"] != r["total"]:
    sys.exit("FAIL: ok + errors != total")
EOF
    # Wall-clock deadline flavor: nondeterministic breach count, but the run
    # itself must still exit 0 with a well-formed report.
    "$serve" "${common[@]}" --deadline-ms 50 --out "$tmpdir/d.json" \
        >/dev/null 2>&1
    code=$?
    [ "$code" -eq 0 ] || fail "--deadline-ms run must exit 0, got $code"
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmpdir/d.json" \
      || fail "--deadline-ms report is not valid JSON"
    echo "PASS: per-request breaches are error replies, exit stays 0"
    ;;
  gate)
    "$serve" "${common[@]}" --out "$tmpdir/r.json" >/dev/null 2>&1 \
      || fail "serve run failed"
    "$compare" "$tmpdir/r.json" "$tmpdir/r.json" --suite bench_serve \
        >/dev/null \
      || fail "self-compare must exit 0"
    python3 - "$tmpdir/r.json" "$tmpdir/worse.json" <<'EOF' || exit 1
import json, sys
r = json.load(open(sys.argv[1]))
m = r["suites"]["bench_serve"]["metrics"]["p99_ns"]
m["value"] = m["value"] * 1.5
json.dump(r, open(sys.argv[2], "w"))
EOF
    "$compare" "$tmpdir/r.json" "$tmpdir/worse.json" --suite bench_serve \
        --threshold p99_ns=0.2 >/dev/null
    code=$?
    [ "$code" -eq 1 ] \
      || fail "synthetic +50% p99 regression must exit 1, got $code"
    echo "PASS: self-compare green, synthetic p99 regression gates"
    ;;
  daemon)
    [ -n "$trace_check" ] || fail "daemon mode needs TRACE_CHECK_BINARY"
    daemon="$compare"  # this mode's second binary is relspecd
    sock="$tmpdir/d.sock"
    wal="$tmpdir/d.wal"
    wait_for_socket() {
      for _ in $(seq 100); do
        [ -S "$sock" ] && return 0
        sleep 0.1
      done
      return 1
    }
    ping_fp() {
      "$daemon" --ping "$sock" | sed -n 's/^pong fp=//p'
    }

    # 1) Wire parity: the daemon replay of the update-free default mix must
    #    reproduce the in-process answers_hash bit-for-bit. Requests run on
    #    the daemon's pool workers, so its timeline has a worker-1 lane.
    "$daemon" --rotation 8 --socket "$sock" --threads 2 \
        --trace-out "$tmpdir/daemon1.json" >"$tmpdir/daemon1.log" 2>&1 &
    dpid=$!
    wait_for_socket || fail "daemon did not come up (see daemon1.log)"
    "$serve" "${common[@]}" --out "$tmpdir/inproc.json" >/dev/null 2>&1 \
      || fail "in-process serve run failed"
    "$serve" "${common[@]}" --connect "$sock" --out "$tmpdir/remote.json" \
        >/dev/null 2>&1 \
      || fail "--connect replay against the daemon failed"
    python3 - "$tmpdir/inproc.json" "$tmpdir/remote.json" <<'EOF' || exit 1
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
if a["answers_hash"] != b["answers_hash"]:
    sys.exit("FAIL: daemon replay answers_hash differs from in-process")
for name, r in (("in-process", a), ("daemon", b)):
    if r["requests"]["errors"] != 0:
        sys.exit(f"FAIL: {name} run had {r['requests']['errors']} errors")
EOF
    kill -TERM "$dpid"
    wait "$dpid"
    code=$?
    [ "$code" -eq 0 ] || fail "daemon SIGTERM drain must exit 0, got $code"
    "$trace_check" "$tmpdir/daemon1.json" --min-events 10 \
        --require-lane main --require-lane worker-1 \
      || fail "daemon trace lacks the main + worker-1 lanes"

    # 2) Crash durability: replay updates into a durable daemon, kill -9,
    #    recover from the WAL — the fingerprint must survive the crash.
    rm -f "$sock"  # a stale socket file would fool wait_for_socket
    "$daemon" --rotation 8 --socket "$sock" --wal "$wal" \
        >"$tmpdir/daemon2.log" 2>&1 &
    dpid=$!
    wait_for_socket || fail "durable daemon did not come up (see daemon2.log)"
    "$serve" --qps 500 --requests 60 --clients 1 --seed 7 --population 32 \
        --mix update=1 --connect "$sock" --out "$tmpdir/up.json" \
        >/dev/null 2>&1 \
      || fail "update replay against the durable daemon failed"
    python3 - "$tmpdir/up.json" <<'EOF' || exit 1
import json, sys
r = json.load(open(sys.argv[1]))["requests"]
if r["errors"] != 0:
    sys.exit(f"FAIL: update replay had {r['errors']} errors")
EOF
    fp_before=$(ping_fp)
    [ -n "$fp_before" ] || fail "could not ping the daemon before the kill"
    kill -9 "$dpid"
    wait "$dpid" 2>/dev/null
    rm -f "$sock"
    "$daemon" --rotation 8 --socket "$sock" --wal "$wal" \
        >"$tmpdir/daemon3.log" 2>&1 &
    dpid=$!
    wait_for_socket || fail "recovered daemon did not come up (see daemon3.log)"
    grep -q "recovered" "$tmpdir/daemon3.log" \
      || fail "restarted daemon did not report a WAL recovery"
    # A kill -9 between fsynced appends leaves the current pair intact:
    # recovery must not fall back to the previous generation.
    grep -q "used_fallback=0" "$tmpdir/daemon3.log" \
      || fail "restarted daemon fell back a generation (see daemon3.log)"
    fp_after=$(ping_fp)
    kill -TERM "$dpid"
    wait "$dpid" || fail "recovered daemon failed its drain"
    [ "$fp_before" = "$fp_after" ] \
      || fail "fingerprint lost across kill -9: $fp_before -> $fp_after"
    echo "PASS: daemon replay bit-identical; acked updates survive kill -9"
    ;;
  *)
    fail "unknown mode '$mode'"
    ;;
esac
