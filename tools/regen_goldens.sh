#!/usr/bin/env bash
# Regenerates tests/golden/*.snap, tests/golden/v2/*.rsnp and
# tests/golden/chi_builds.txt from the current engine output, and
# tests/golden/parse_diagnostics.txt from the current parser output. The
# version 1 fixtures under tests/golden/v1/ are never regenerated.
#
# Run this only after convincing yourself the spec-serialization (or chi
# build, or parser diagnostic) change is intended; the golden tests exist to
# catch accidental byte drift.
#
#   tools/regen_goldens.sh [BUILD_DIR]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

if [[ ! -d "$build" ]]; then
  echo "error: build directory $build not found (run cmake first)" >&2
  exit 1
fi

cmake --build "$build" --target golden_test --target parser_test -j >/dev/null
mkdir -p "$repo/tests/golden/v2"
UPDATE_GOLDENS=1 "$build/tests/golden_test" >/dev/null
UPDATE_GOLDENS=1 "$build/tests/parser_test" \
    --gtest_filter='ParserDiagnostics.*' >/dev/null
echo "regenerated:"
ls -l "$repo"/tests/golden/*.snap "$repo"/tests/golden/v2/*.rsnp \
    "$repo"/tests/golden/chi_builds.txt \
    "$repo"/tests/golden/parse_diagnostics.txt
