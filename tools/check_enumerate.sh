#!/usr/bin/env bash
# CTest check for output-sensitive answer enumeration.
#
# Usage: check_enumerate.sh CLI_BINARY EXAMPLES_DIR
#
# robot.rsp has 16 move symbols, so an unpruned walk to depth 7 visits
# 16^7 terms; expanding only the terms that can still reach an answer prints
# the same 2 plans at once. The run must exit 0, print both plans, and
# report a query.enumerate phase in its --stats JSON. The timeout turns a
# walk that is no longer pruned into a prompt failure.
set -u

cli="$1"
examples="$2"

fail() { echo "FAIL: $*" >&2; exit 1; }

out=$(timeout 20 "$cli" "$examples/robot.rsp" --enumerate 7 --stats)
code=$?
[ "$code" -eq 0 ] || fail "expected exit 0, got $code"
answers=$(grep -c '^  move' <<<"$out")
[ "$answers" -eq 2 ] || fail "expected 2 printed answers, got $answers"
grep -q '"query.enumerate": {"count": 1,' <<<"$out" \
  || fail "--stats JSON lacks a query.enumerate phase"
echo "PASS: 2 answers at depth 7; query.enumerate phase reported"
