#!/usr/bin/env bash
# CTest check for --prove.
#
# Usage: check_prove.sh CLI_BINARY EXAMPLES_DIR
#
# --prove reads its terms in the program's own syntax, purified through the
# spec (GraphSpecification::PathOfGroundTerm). lists.rsp has no +1 symbol,
# so "0" must still be the term 0 and "ext(0, a)" a mixed term; both must
# prove the same from the program and from its snapshot. A term naming a
# symbol the program lacks is a usage error (exit 2). On meets.rsp, day 8
# is congruent to day 2 and day 1 is not to day 2, which --prove reports
# and exits 0. A proof walks its terms, so diverge.rsp (524,289 clusters,
# about 10^7 equations) proves 0 == 0 in about the time its build takes.
set -u

cli="$1"
examples="$2"

fail() { echo "FAIL: $*" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$cli" "$examples/lists.rsp" --save-snapshot "$tmp/lists.rsnp" >/dev/null \
  || fail "could not save the lists.rsp snapshot"

for mode in program snapshot; do
  if [ "$mode" = program ]; then
    from=("$examples/lists.rsp")
  else
    from=(--load-snapshot "$tmp/lists.rsnp")
  fi
  out=$("$cli" "${from[@]}" --prove 0 0)
  code=$?
  [ "$code" -eq 0 ] || fail "$mode --prove 0 0: expected exit 0, got $code"
  grep -q '^proof that 0 == 0 in Cl(R):$' <<<"$out" \
    || fail "$mode --prove 0 0: no proof printed"
  out=$("$cli" "${from[@]}" --prove "ext(0, a)" "ext(0, a)")
  code=$?
  [ "$code" -eq 0 ] || fail "$mode --prove ext(0, a): expected exit 0, got $code"
  grep -q '^proof that ext(0, a) == ext(0, a) in Cl(R):$' <<<"$out" \
    || fail "$mode --prove ext(0, a): no proof printed"
  "$cli" "${from[@]}" --prove 0 1 >/dev/null 2>&1
  code=$?
  [ "$code" -eq 2 ] || fail "$mode --prove 0 1 (no +1): expected exit 2, got $code"
done

out=$("$cli" "$examples/meets.rsp" --prove 8 2)
code=$?
[ "$code" -eq 0 ] || fail "meets --prove 8 2: expected exit 0, got $code"
grep -q '^proof that 8 == 2 in Cl(R):$' <<<"$out" \
  || fail "meets --prove 8 2: no proof printed"
grep -q '\[congruence\]$' <<<"$out" \
  || fail "meets --prove 8 2: no lifted step"
out=$("$cli" "$examples/meets.rsp" --prove 1 2)
code=$?
[ "$code" -eq 0 ] || fail "meets --prove 1 2: expected exit 0, got $code"
grep -q '^(1, 2): .*not congruent' <<<"$out" \
  || fail "meets --prove 1 2: expected \"not congruent\", got: $out"

# Twice the time --info takes on the same binary, plus 5 s of slack.
start=$(date +%s%N)
"$cli" "$examples/diverge.rsp" --info >/dev/null \
  || fail "diverge --info failed"
info_ms=$(( ($(date +%s%N) - start) / 1000000 ))
limit_s=$(( 2 * info_ms / 1000 + 5 ))
out=$(timeout "$limit_s" "$cli" "$examples/diverge.rsp" --prove 0 0)
code=$?
[ "$code" -eq 0 ] || fail "diverge --prove 0 0: exit $code within ${limit_s}s (--info took ${info_ms}ms)"
grep -q '^proof that 0 == 0 in Cl(R):$' <<<"$out" \
  || fail "diverge --prove 0 0: no proof printed"
echo "PASS: --prove from lists.rsp and its snapshot, meets.rsp and diverge.rsp"
