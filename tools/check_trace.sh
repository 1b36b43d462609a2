#!/usr/bin/env bash
# CTest driver for the --trace-out timeline contract.
#
# Usage: check_trace.sh CLI_BINARY EXAMPLES_DIR TRACE_CHECK_BINARY
#
# Runs the pipeline with --trace-out and validates the emitted Chrome
# trace-event JSON: structurally valid (B/E matched, timestamps monotone per
# lane), carrying a meaningful number of events, with the main thread
# registered as a named lane. Evaluation is single-threaded; worker lanes
# belong to relspecd and are checked by check_serve.sh's daemon mode.
set -u

cli="$1"
examples="$2"
trace_check="$3"

fail() { echo "FAIL: $*" >&2; exit 1; }

trace=$(mktemp)
trap 'rm -f "$trace"' EXIT

"$cli" "$examples/meets.rsp" --fact "Meets(4, Tony)" --spec graph \
    --trace-out="$trace" >/dev/null \
  || fail "traced CLI run failed"
[ -s "$trace" ] || fail "--trace-out produced no file"

# The pipeline phases alone contribute well over 10 span pairs.
"$trace_check" "$trace" --min-events 20 --require-lane main \
  || fail "trace validation failed"

# Tracing must not perturb results: the spec printed under --trace-out must
# be byte-identical to an untraced run.
diff <("$cli" "$examples/meets.rsp" --spec graph --trace-out=/dev/null) \
     <("$cli" "$examples/meets.rsp" --spec graph) \
  || fail "--trace-out changed the CLI's stdout"

echo "PASS: trace valid with a main lane"
