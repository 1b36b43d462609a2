#!/usr/bin/env bash
# CTest driver for the resource governor's CLI contract.
#
# Usage: check_governor.sh CLI_BINARY EXAMPLES_DIR MODE [TRACE_CHECK_BINARY]
#
# MODE deadline: the divergent program must exit with the dedicated
#   resource-exhaustion code (7) and do so promptly — within the
#   --deadline-ms budget plus scheduling slack. The --stats and --trace-out
#   files must both be flushed (and be valid) despite the breach, so
#   truncated runs stay diagnosable; the trace is validated with
#   TRACE_CHECK_BINARY when one is given.
# MODE partial: with --allow-partial the same program must exit 0, emit a
#   well-formed truncated specification, and report breach metrics in the
#   --stats snapshot. Saved as a snapshot and loaded back without the
#   program, the truncated spec must answer the seed fact and print the
#   same answers to a finite and a functional query and the same --spec eq
#   as the engine run (whose enumeration must not stop on the build's
#   recorded breach). A spec-only --explain is a usage error (exit 2).
# MODE delta: warm-start from a snapshot, then apply a base-fact delta that
#   makes the fixpoint diverge (docs/INCREMENTAL.md). The snapshot handshake
#   must pass, the breached delta application must exit 7, and --stats /
#   --trace-out must be flushed exactly like a breached build.
# MODE sigterm: SIGTERM takes the same cooperative-cancellation path as
#   SIGINT — the divergent program must unwind cleanly with exit 7 (not die
#   on the default signal disposition, which would be 143), promptly, with
#   --stats and --trace-out flushed. A supervisor's TERM is not data loss.
# MODE daemon: CLI_BINARY carries relspecd instead. SIGTERM mid-serving must
#   drain — requests already accepted get replies, the process exits 0 (not
#   143, never 7: a daemon maps breaches to error replies), and --stats /
#   --trace-out are flushed and valid, exactly like the CLI contract above.
set -u

cli="$1"
examples="$2"
mode="$3"
trace_check="${4:-}"
prog="$examples/diverge.rsp"

fail() { echo "FAIL: $*" >&2; exit 1; }

case "$mode" in
  deadline)
    stats=$(mktemp) trace=$(mktemp)
    trap 'rm -f "$stats" "$trace"' EXIT
    rm -f "$stats" "$trace"
    start_ms=$(($(date +%s%N) / 1000000))
    "$cli" "$prog" --info --deadline-ms 1000 \
        --stats="$stats" --trace-out="$trace"
    code=$?
    end_ms=$(($(date +%s%N) / 1000000))
    elapsed=$((end_ms - start_ms))
    [ "$code" -eq 7 ] || fail "expected exit 7 (resource exhaustion), got $code"
    # 1000 ms budget + generous slack for process startup and teardown.
    [ "$elapsed" -lt 10000 ] || fail "took ${elapsed} ms to honor a 1000 ms deadline"
    # Diagnosability on breach: both snapshots flushed and well-formed.
    [ -s "$stats" ] || fail "--stats file not flushed on exit 7"
    grep -q "governor.breach" "$stats" \
      || fail "--stats snapshot on exit 7 lacks governor.breach"
    [ -s "$trace" ] || fail "--trace-out file not flushed on exit 7"
    if [ -n "$trace_check" ]; then
      "$trace_check" "$trace" --min-events 1 --require-lane main \
        || fail "--trace-out JSON from a breached run failed validation"
    fi
    echo "PASS: exit 7 after ${elapsed} ms; stats + trace flushed"
    ;;
  partial)
    out=$("$cli" "$prog" --spec eq --max-nodes 2000 --allow-partial --stats 2>/dev/null)
    code=$?
    [ "$code" -eq 0 ] || fail "--allow-partial should exit 0, got $code"
    echo "$out" | grep -q "equational specification:.*\[truncated\]" \
      || fail "missing [truncated] marker in spec output"
    echo "$out" | grep -q "governor.breach" \
      || fail "missing governor.breach counter in --stats snapshot"
    # The truncated spec prints its truncation, and reloads from a snapshot
    # to answer membership and queries exactly like the engine run.
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    "$cli" "$prog" --max-nodes 2000 --allow-partial --save-spec "$work/t.spec" >/dev/null 2>&1 \
      || fail "--save-spec of a truncated spec failed"
    grep -q "^truncated " "$work/t.spec" || fail "saved spec lacks the truncated line"
    query='?(x) B(0, x).'
    fquery='?(t) B(t, b0).'
    reads=(--query "$query" --query "$fquery" --spec eq)
    "$cli" "$prog" --max-nodes 2000 --allow-partial "${reads[@]}" \
        --save-snapshot "$work/t.snap" 2>/dev/null \
        | grep -v "^snapshot saved" > "$work/engine.txt" \
      || fail "--save-snapshot of a truncated spec failed"
    "$cli" --load-snapshot "$work/t.snap" --fact "B(0, b0)" 2>/dev/null | grep -q "true" \
      || fail "truncated spec did not answer the seed fact after reload"
    "$cli" --load-snapshot "$work/t.snap" "${reads[@]}" 2>/dev/null \
        | grep -v "^loaded specification" > "$work/loaded.txt" \
      || fail "--load-snapshot --query --spec eq failed"
    for head in "answer(x)" "answer(t)" "equational specification"; do
      grep -q "^$head" "$work/loaded.txt" || fail "reloaded spec printed no $head"
    done
    cmp -s "$work/engine.txt" "$work/loaded.txt" \
      || fail "reloaded spec answered the queries or printed --spec eq unlike the engine run"
    "$cli" --load-snapshot "$work/t.snap" --explain "B(0, b0)" >/dev/null 2>&1
    code=$?
    [ "$code" -eq 2 ] || fail "spec-only --explain should exit 2, got $code"
    echo "PASS: truncated spec well-formed, breach metrics present, reload answers alike"
    ;;
  delta)
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    # Without its seed fact the subset family converges instantly; the
    # delta re-inserts the seed, so the rebuild it triggers is what diverges.
    sed '/^B(0, b0)\./d' "$prog" > "$work/seedless.rsp"
    "$cli" "$work/seedless.rsp" --save-snapshot "$work/seed.snap" >/dev/null \
      || fail "building the seedless program failed"
    printf '+ B(0, b0).\n' > "$work/deltas.txt"
    "$cli" "$work/seedless.rsp" --load-snapshot "$work/seed.snap" \
        --apply-deltas "$work/deltas.txt" --deadline-ms 1000 \
        --stats="$work/stats.json" --trace-out="$work/trace.json" >/dev/null
    code=$?
    [ "$code" -eq 7 ] || fail "expected exit 7 from a breached delta, got $code"
    # Diagnosability on breach, same contract as MODE deadline.
    [ -s "$work/stats.json" ] || fail "--stats not flushed on delta breach"
    grep -q "governor.breach" "$work/stats.json" \
      || fail "--stats snapshot on delta breach lacks governor.breach"
    grep -q "delta.apply" "$work/stats.json" \
      || fail "--stats snapshot lacks the delta.apply phase"
    [ -s "$work/trace.json" ] || fail "--trace-out not flushed on delta breach"
    if [ -n "$trace_check" ]; then
      "$trace_check" "$work/trace.json" --min-events 1 --require-lane main \
        || fail "--trace-out JSON from a breached delta run failed validation"
    fi
    echo "PASS: delta breach exit 7; handshake + stats + trace flushed"
    ;;
  sigterm)
    stats=$(mktemp) trace=$(mktemp)
    trap 'rm -f "$stats" "$trace"' EXIT
    rm -f "$stats" "$trace"
    # A huge deadline keeps the governor armed without ever firing: the only
    # thing that can stop this run is the signal.
    "$cli" "$prog" --info --deadline-ms 600000 \
        --stats="$stats" --trace-out="$trace" &
    pid=$!
    sleep 1
    kill -TERM "$pid" 2>/dev/null || fail "process exited before SIGTERM"
    term_ms=$(($(date +%s%N) / 1000000))
    wait "$pid"
    code=$?
    end_ms=$(($(date +%s%N) / 1000000))
    elapsed=$((end_ms - term_ms))
    # 143 (128+15) would mean the default disposition killed us mid-write.
    [ "$code" -eq 7 ] || fail "expected exit 7 (cooperative cancel), got $code"
    [ "$elapsed" -lt 10000 ] || fail "took ${elapsed} ms to honor SIGTERM"
    [ -s "$stats" ] || fail "--stats file not flushed on SIGTERM"
    grep -q "governor.breach" "$stats" \
      || fail "--stats snapshot on SIGTERM lacks governor.breach"
    [ -s "$trace" ] || fail "--trace-out file not flushed on SIGTERM"
    if [ -n "$trace_check" ]; then
      "$trace_check" "$trace" --min-events 1 --require-lane main \
        || fail "--trace-out JSON from a SIGTERM'd run failed validation"
    fi
    echo "PASS: SIGTERM cancelled cooperatively in ${elapsed} ms; stats + trace flushed"
    ;;
  daemon)
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    sock="$work/g.sock"
    stats="$work/stats.json"
    trace="$work/trace.json"
    "$cli" --rotation 8 --socket "$sock" --stats="$stats" \
        --trace-out "$trace" >"$work/daemon.log" 2>&1 &
    pid=$!
    up=0
    for _ in $(seq 100); do
      if [ -S "$sock" ]; then up=1; break; fi
      sleep 0.1
    done
    [ "$up" -eq 1 ] || fail "daemon did not come up (see daemon.log)"
    # Serve some real load so the drain has requests to account for.
    for _ in 1 2 3; do
      "$cli" --ping "$sock" >/dev/null || fail "ping against the daemon failed"
    done
    kill -TERM "$pid" 2>/dev/null || fail "daemon exited before SIGTERM"
    term_ms=$(($(date +%s%N) / 1000000))
    wait "$pid"
    code=$?
    end_ms=$(($(date +%s%N) / 1000000))
    elapsed=$((end_ms - term_ms))
    # 143 would mean the default disposition killed the daemon mid-drain.
    [ "$code" -eq 0 ] || fail "expected exit 0 (drained), got $code"
    [ "$elapsed" -lt 10000 ] || fail "took ${elapsed} ms to honor SIGTERM"
    grep -q "drained after" "$work/daemon.log" \
      || fail "daemon did not report its drain"
    [ -s "$stats" ] || fail "--stats file not flushed on SIGTERM"
    grep -q "serve.accepts" "$stats" \
      || fail "--stats snapshot lacks the serve.accepts counter"
    [ -s "$trace" ] || fail "--trace-out file not flushed on SIGTERM"
    if [ -n "$trace_check" ]; then
      "$trace_check" "$trace" --min-events 1 --require-lane main \
        || fail "--trace-out JSON from the drained daemon failed validation"
    fi
    echo "PASS: daemon drained in ${elapsed} ms; stats + trace flushed"
    ;;
  *)
    fail "unknown mode '$mode'"
    ;;
esac
