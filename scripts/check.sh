#!/usr/bin/env bash
# Full verification: configure, build, run tests, run every bench, then the
# sanitizer matrix (ASan+UBSan over everything, TSan over the concurrency
# label) and the clang-tidy gate.
#
# Usage: scripts/check.sh [build-dir]
#
# Each sanitizer gets its own build directory (sanitized objects can't link
# against plain ones):
#   <build>        default RelWithDebInfo, audits compiled out
#   <build>-asan   ASan + UBSan + PROBE_AUDIT=ON, full ctest
#   <build>-tsan   TSan, ctest -L concurrency
#   <build>-cov    gcov instrumentation, ctest -L obs + coverage floor
# Skip the sanitizer passes (e.g. on a machine without the runtimes) with
# CHECK_SKIP_SANITIZERS=1, the coverage pass with CHECK_SKIP_COVERAGE=1.
#
# A failed configure or build stops the script (nothing after it can run).
# Every other step — test runs, benches, budget gates, lint — runs whatever
# failed before it; the script then exits 1 and names each failed step.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
FAILURES=()

# Runs the command after the step's name; on failure records the name and
# carries on. The FAIL line goes to stderr, so a caller may discard the
# command's stdout (jq -e prints its verdict) without losing it.
step() {
  local name="$1"
  shift
  if ! "$@"; then
    echo "FAIL: $name" >&2
    FAILURES+=("$name")
  fi
}

configure() {
  # Keep whatever generator an existing dir was configured with; prefer
  # Ninja for fresh ones.
  local dir="$1"
  shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" -S . -G Ninja "$@"
  fi
}

configure "$BUILD"
cmake --build "$BUILD"
step "ctest" ctest --test-dir "$BUILD" --output-on-failure

for b in "$BUILD"/bench/*; do
  # The bench dir also holds CMake bookkeeping; only run real binaries.
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "=== running $b ==="
  step "$(basename "$b")" "$b"
done

# Budget gates over the bench JSON the loop just refreshed: the timings
# that no perfbench workload (BENCHMARK.json) covers. Exact checks —
# identity, oracles, page and key counts — are asserted in ctest above.
#
# BENCH_leaf.json: the SIMD in-page filter at least 1.3x over its scalar
# fallback (when the host has AVX2 at all), and the filter's ns/row within
# 1.25x of the committed baseline so a slow kernel can't land silently.
if [ -f BENCH_leaf.json ]; then
  step "SIMD filter speedup below 1.3x" \
    jq -e 'if .leaf.avx2 then .leaf.filter_speedup >= 1.3 else true end' \
    BENCH_leaf.json > /dev/null
  if committed=$(git show HEAD:BENCH_leaf.json 2>/dev/null); then
    step "filter ns/row regressed vs committed baseline" \
      jq -en --argjson base "$committed" --slurpfile fresh BENCH_leaf.json \
      '$fresh[0].leaf.filter_simd_ns_per_row <=
       $base.leaf.filter_simd_ns_per_row * 1.25' > /dev/null
  fi
fi

# BENCH_parallel.json: parallel results must stay identical to serial on
# every row; speedup is only meaningful up to the hardware's core count, so
# rows marked oversubscribed are excluded from regression judgement.
if [ -f BENCH_parallel.json ]; then
  step "parallel results diverged from serial" \
    jq -e '[.. | objects | select(has("identical")) | .identical] | all' \
    BENCH_parallel.json > /dev/null
  step "in-budget parallel row collapsed vs serial" \
    jq -e '[.. | objects | select(has("oversubscribed"))
            | select(.oversubscribed | not) | .speedup >= 0.3] | all' \
    BENCH_parallel.json > /dev/null
fi

if [ "${CHECK_SKIP_SANITIZERS:-0}" != "1" ]; then
  # ASan + UBSan over the full suite, with the invariant audits compiled in
  # so the sanitizers run over audited code paths. The fuzz drivers (ctest
  # label `fuzz`) are the main UBSan payload: 10k+ seeded cases across the
  # bit-twiddling hot paths.
  ASAN_BUILD="${BUILD}-asan"
  configure "$ASAN_BUILD" -DPROBE_ASAN=ON -DPROBE_UBSAN=ON -DPROBE_AUDIT=ON
  cmake --build "$ASAN_BUILD"
  step "ctest (asan)" ctest --test-dir "$ASAN_BUILD" --output-on-failure

  # The recovery tier (WAL, redo, 240-cycle crash matrix) again by name:
  # every recovery path must hold under ASan, not just the plain build.
  step "ctest -L recovery (asan)" \
    ctest --test-dir "$ASAN_BUILD" -L recovery --output-on-failure

  # The server tier (wire codec fuzz, sessions, sharded scatter-gather,
  # TCP end-to-end) likewise: hostile frames and socket teardown paths are
  # exactly where ASan/UBSan earn their keep.
  step "ctest -L server (asan)" \
    ctest --test-dir "$ASAN_BUILD" -L server --output-on-failure

  # The join tier (zones distance join, 128-bit distances, SIMD distance
  # kernel, the k-NN fuzzer): overflow and out-of-bounds in the kernels is
  # exactly what ASan/UBSan catch that the oracle tests alone cannot.
  step "ctest -L join (asan)" \
    ctest --test-dir "$ASAN_BUILD" -L join --output-on-failure

  # ThreadSanitizer over the tests that exercise the thread pool and the
  # sharded buffer pool (ctest label `concurrency`).
  TSAN_BUILD="${BUILD}-tsan"
  configure "$TSAN_BUILD" -DPROBE_TSAN=ON
  cmake --build "$TSAN_BUILD" --target concurrency_tests
  step "ctest -L concurrency (tsan)" \
    ctest --test-dir "$TSAN_BUILD" -L concurrency --output-on-failure
fi

# Coverage gate: gcov build, obs-labeled tests, >=80% line floor on
# src/obs/. Its own build dir, like the sanitizers (instrumented objects
# can't link against plain ones). Skip with CHECK_SKIP_COVERAGE=1.
if [ "${CHECK_SKIP_COVERAGE:-0}" != "1" ]; then
  step "coverage" scripts/coverage.sh "${BUILD}-cov" 80
fi

# Static-analysis gate: the invariant linter always runs; the clang-tidy
# half soft-skips when clang-tidy is unavailable (the gcc-only container)
# unless the caller overrides LINT_SOFT_SKIP. CI runs lint.sh directly
# with the tools installed, where missing tools are a hard failure.
step "lint" env LINT_SOFT_SKIP="${LINT_SOFT_SKIP:-1}" scripts/lint.sh "$BUILD"

if [ ${#FAILURES[@]} -gt 0 ]; then
  echo "CHECKS FAILED (${#FAILURES[@]}):"
  printf '  %s\n' "${FAILURES[@]}"
  exit 1
fi
echo "ALL CHECKS PASSED"
