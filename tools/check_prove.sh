#!/usr/bin/env bash
# CTest check for --prove term parsing.
#
# Usage: check_prove.sh CLI_BINARY EXAMPLES_DIR
#
# --prove reads its terms in the program's own syntax, purified through the
# spec (GraphSpecification::PathOfGroundTerm). lists.rsp has no +1 symbol,
# so "0" must still be the term 0 and "ext(0, a)" a mixed term; both must
# prove the same from the program and from its snapshot. A term naming a
# symbol the program lacks is a usage error (exit 2).
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
echo "PASS: --prove 0 0 and a mixed term prove from lists.rsp and its snapshot"
