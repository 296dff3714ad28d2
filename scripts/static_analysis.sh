#!/bin/sh
# Static-analysis lane: nocsched-lint -> clang-tidy -> optional scan-build.
#
#   sh scripts/static_analysis.sh
#
# Exits non-zero on any nocsched-lint finding or any clang-tidy
# error-level diagnostic (the hard set promoted by WarningsAsErrors in
# .clang-tidy).  Tools that are not installed are skipped with a notice
# — the nocsched-lint pass always runs and is the floor.
#
# Environment:
#   NOCSCHED_BUILD_DIR    build tree to (re)use          [default: <repo>/build]
#   NOCSCHED_CMAKE_ARGS   extra args for the configure step, if one is needed
#   NOCSCHED_TIDY=0       skip the clang-tidy stage
#   NOCSCHED_SCAN_BUILD=1 also run the clang static analyzer (slow: full
#                         recompile of src/ under scan-build in a
#                         throwaway tree)
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${NOCSCHED_BUILD_DIR:-"$ROOT/build"}
JOBS=$(nproc 2>/dev/null || echo 4)
status=0

# --- 0. a configured tree with compile_commands.json -----------------------
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  # shellcheck disable=SC2086  # NOCSCHED_CMAKE_ARGS is a word list
  cmake -B "$BUILD" -S "$ROOT" ${NOCSCHED_CMAKE_ARGS:-}
fi

# --- 1. nocsched-lint (rules D1-D6, P1-P2, S1) ------------------------------
cmake --build "$BUILD" -j "$JOBS" --target nocsched-lint
if ! "$BUILD/tools/lint/nocsched-lint" \
    --root "$ROOT" --compile-commands "$BUILD" \
    --json-out "$BUILD/lint_findings.json"; then
  status=1
fi

# --- 2. clang-tidy over src/ (hard set fails, advisory set reports) ---------
if [ "${NOCSCHED_TIDY:-1}" != "1" ]; then
  echo "clang-tidy: disabled (NOCSCHED_TIDY=${NOCSCHED_TIDY:-})"
elif command -v run-clang-tidy >/dev/null 2>&1; then
  if ! run-clang-tidy -quiet -p "$BUILD" -j "$JOBS" "$ROOT/src/.*" \
      > "$BUILD/clang_tidy.log" 2>&1; then
    status=1
    echo "clang-tidy: error-level findings (see $BUILD/clang_tidy.log):" >&2
    grep -E 'error:' "$BUILD/clang_tidy.log" >&2 || true
  else
    echo "clang-tidy: clean (advisory output in $BUILD/clang_tidy.log)"
  fi
else
  echo "clang-tidy: run-clang-tidy not installed, skipping this stage"
fi

# --- 3. optional: clang static analyzer -------------------------------------
if [ "${NOCSCHED_SCAN_BUILD:-0}" = "1" ]; then
  if command -v scan-build >/dev/null 2>&1; then
    SCAN_DIR="$BUILD/scan-build"
    scan-build --status-bugs -o "$SCAN_DIR/report" \
      cmake -B "$SCAN_DIR/tree" -S "$ROOT" \
        -DNOCSCHED_BUILD_TESTS=OFF -DNOCSCHED_BUILD_BENCH=OFF \
        -DNOCSCHED_BUILD_EXAMPLES=OFF
    scan-build --status-bugs -o "$SCAN_DIR/report" \
      cmake --build "$SCAN_DIR/tree" -j "$JOBS" || status=1
  else
    echo "scan-build: not installed, skipping this stage"
  fi
fi

exit "$status"
