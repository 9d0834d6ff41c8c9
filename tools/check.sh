#!/usr/bin/env bash
# The single pre-merge gate. Runs, in order:
#
#   1. configure + build with warnings-as-errors (and the compile
#      database for clang-tidy)
#   2. the regular test suite (differential + torture + coherence +
#      network tiers excluded)
#   3. the differential-soundness tier (slow, randomized; includes the
#      write-mix mutation scenarios)
#   4. the crash-recovery torture tier (slow: a simulated crash at every
#      byte boundary of log appends and compaction staging)
#   5. the concurrent crash-torture tier: mutator + retriever threads
#      over the group-commit path, a crash at every byte boundary of the
#      mutation stream — recovery must land on exactly a prefix of the
#      acknowledged commit order
#   6. the cache-coherence torture tier: randomized lockstep
#      interleavings of mutations and retrieves, a cold no-cache oracle
#      differencing every step
#   6b. the network torture tier: the wire-protocol server under short
#      reads/writes, mid-frame disconnects, in-flight corruption,
#      stalled peers, a seeded protocol fuzzer, and a
#      kill-the-durable-backend-under-concurrent-load crash whose acked
#      responses must all survive recovery
#   6c. the regular test suite again, built as Release (-O2) in
#      build-release, so timing-sensitive tests run at both optimisation
#      levels
#   7. a Release (-O2) build of bench_latemat and its --smoke gate: the
#      late-materialized data pipeline must not be slower than the
#      tuple-at-a-time optimizer on the reference join workload
#   7b. a Release build of bench_vectorized and its --smoke gate: the
#      vectorized columnar plan must be >= 2x faster than the
#      late-materialized plan on a selective 128K-row scan (also fails
#      if the committed BENCH_vectorized.json is missing)
#   8. a Release build of bench_governor and its --smoke gate: governing
#      a non-tripping retrieve (generous deadline + budgets) must cost
#      no more than 2% over the ungoverned pipeline
#   9. a Release build of bench_invalidation and its --smoke gate: with
#      dependency-tracked invalidation the cache must stay >= 2x faster
#      than uncached at a 10% write mix (also fails if the committed
#      BENCH_invalidation.json is missing)
#  10. a Release build of bench_groupcommit and its --smoke gate: at 16
#      concurrent writers group commit must be >= 2x faster than
#      per-mutation fsync (also fails if the committed
#      BENCH_groupcommit.json is missing)
#  10b. a Release build of bench_server and its --smoke gate: 200
#      concurrent wire connections against a small admission envelope —
#      every request must eventually succeed through the retry client,
#      with zero protocol errors and throughput above the floor (also
#      fails if the committed BENCH_server.json is missing)
#  11. the disclosure-audit gate: viewauth_lint --audit over the seeded
#      audit fixtures (clean catalog silent, seeded channel/bypass
#      catalogs exit 1) plus a generated 100-view catalog that must
#      finish under the auditor's enumeration cutoffs within 60s
#  12. clang-tidy via tools/lint.sh (SKIPPED when not installed)
#  13. the full suite under ThreadSanitizer
#  14. the full suite under AddressSanitizer + UndefinedBehaviorSanitizer
#      (both sanitizer tiers include the torture + coherence tests and
#      the group-commit path, which is on by default)
#
# Prints a summary table and exits nonzero if any step failed.
#
# Usage: tools/check.sh [extra ctest args...]
#   VIEWAUTH_CHECK_SKIP_SANITIZERS=1 skips the sanitizer tiers (quick
#   local runs).

set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

STEP_NAMES=()
STEP_RESULTS=()
FAILED=0

run_step() {
  local name="$1"
  shift
  echo
  echo "== ${name} =="
  local status=0
  "$@" || status=$?
  STEP_NAMES+=("$name")
  if [ "$status" -eq 0 ]; then
    STEP_RESULTS+=("PASS")
  else
    STEP_RESULTS+=("FAIL")
    FAILED=1
  fi
  return 0
}

configure_and_build() {
  cmake -B build -S . -DVIEWAUTH_WERROR=ON >/dev/null &&
    cmake --build build -j "$JOBS"
}

run_step "build (Werror)" configure_and_build

if [ "${STEP_RESULTS[0]}" = "PASS" ]; then
  run_step "unit tests" \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
      -E 'Differential|CrashTorture|CacheCoherence|NetworkTorture' "$@"
  run_step "differential soundness" \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R Differential "$@"
  run_step "crash-recovery torture" \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R CrashTorture -E ConcurrentCrashTorture "$@"
  run_step "concurrent crash torture" \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R ConcurrentCrashTorture "$@"
  run_step "cache-coherence torture" \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R CacheCoherence "$@"
  run_step "network torture" \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R NetworkTorture "$@"
  release_unit_tests() {
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" &&
      ctest --test-dir build-release --output-on-failure -j "$JOBS" \
        -E 'Differential|CrashTorture|CacheCoherence|NetworkTorture' "$@"
  }
  run_step "unit tests (Release)" release_unit_tests "$@"
  latemat_smoke() {
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" --target bench_latemat &&
      ./build-release/bench/bench_latemat --smoke
  }
  run_step "latemat perf smoke (Release)" latemat_smoke
  vectorized_smoke() {
    if [ ! -f BENCH_vectorized.json ]; then
      echo "BENCH_vectorized.json missing: run" \
        "./build-release/bench/bench_vectorized from the repo root"
      return 1
    fi
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" --target bench_vectorized &&
      ./build-release/bench/bench_vectorized --smoke
  }
  run_step "vectorized perf smoke (Release)" vectorized_smoke
  governor_smoke() {
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" --target bench_governor &&
      ./build-release/bench/bench_governor --smoke
  }
  run_step "governor overhead smoke (Release)" governor_smoke
  invalidation_smoke() {
    if [ ! -f BENCH_invalidation.json ]; then
      echo "BENCH_invalidation.json missing: run" \
        "./build-release/bench/bench_invalidation from the repo root"
      return 1
    fi
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" --target bench_invalidation &&
      ./build-release/bench/bench_invalidation --smoke
  }
  run_step "invalidation perf smoke (Release)" invalidation_smoke
  groupcommit_smoke() {
    if [ ! -f BENCH_groupcommit.json ]; then
      echo "BENCH_groupcommit.json missing: run" \
        "./build-release/bench/bench_groupcommit from the repo root"
      return 1
    fi
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" --target bench_groupcommit &&
      ./build-release/bench/bench_groupcommit --smoke
  }
  run_step "group-commit perf smoke (Release)" groupcommit_smoke
  server_smoke() {
    if [ ! -f BENCH_server.json ]; then
      echo "BENCH_server.json missing: run" \
        "./build-release/bench/bench_server from the repo root"
      return 1
    fi
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
      cmake --build build-release -j "$JOBS" --target bench_server &&
      ./build-release/bench/bench_server --smoke
  }
  run_step "server load smoke (Release)" server_smoke
  disclosure_audit() {
    local lint=./build/tools/viewauth_lint
    local status
    # Seeded fixtures: the clean catalog must audit silent, the seeded
    # channel/bypass catalogs must fail with exit 1 exactly (2 = load
    # failure, which would mean the fixture rotted).
    "$lint" --audit --quiet tests/data/audit_clean_catalog.script ||
      { echo "audit: clean catalog reported findings"; return 1; }
    "$lint" --audit --quiet tests/data/audit_channel_catalog.script
    status=$?
    [ "$status" -eq 1 ] ||
      { echo "audit: channel catalog exit $status, want 1"; return 1; }
    "$lint" --audit --quiet tests/data/audit_deny_bypass_catalog.script
    status=$?
    [ "$status" -eq 1 ] ||
      { echo "audit: deny-bypass catalog exit $status, want 1"; return 1; }
    # Scale guard: a 100-view catalog (every view shares the key, so the
    # composition lattice is huge) must finish under the enumeration
    # cutoffs, not time out. The generated catalog is all channels, so
    # exit 1 is the expected verdict.
    local big
    big="$(mktemp)"
    {
      printf 'relation WIDE (K int key'
      for i in $(seq 1 100); do printf ', C%d int' "$i"; done
      printf ')\n'
      for i in $(seq 1 100); do
        printf 'view V%d (WIDE.K, WIDE.C%d)\n' "$i" "$i"
        printf 'permit V%d to Scale\n' "$i"
      done
    } > "$big"
    timeout 60 "$lint" --audit --quiet "$big"
    status=$?
    rm -f "$big"
    [ "$status" -eq 1 ] ||
      { echo "audit: 100-view catalog exit $status, want 1"; return 1; }
    echo "audit: fixtures and 100-view scale guard OK"
  }
  run_step "disclosure audit" disclosure_audit
  run_step "clang-tidy" tools/lint.sh build
else
  echo "build failed; skipping test and lint steps"
fi

if [ "${VIEWAUTH_CHECK_SKIP_SANITIZERS:-0}" != "1" ]; then
  tsan_tier() {
    cmake -B build-tsan -S . -DVIEWAUTH_WERROR=ON \
      -DVIEWAUTH_SANITIZE=thread >/dev/null &&
      cmake --build build-tsan -j "$JOBS" &&
      TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" "$@"
  }
  asan_tier() {
    cmake -B build-asan -S . -DVIEWAUTH_WERROR=ON \
      -DVIEWAUTH_SANITIZE=address,undefined >/dev/null &&
      cmake --build build-asan -j "$JOBS" &&
      ASAN_OPTIONS="halt_on_error=1:detect_leaks=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
        ctest --test-dir build-asan --output-on-failure -j "$JOBS" "$@"
  }
  run_step "thread sanitizer" tsan_tier "$@"
  run_step "address+ub sanitizer" asan_tier "$@"
else
  echo
  echo "(sanitizer tiers skipped: VIEWAUTH_CHECK_SKIP_SANITIZERS=1)"
fi

echo
echo "== summary =="
for i in "${!STEP_NAMES[@]}"; do
  printf '  %-24s %s\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
done

if [ "$FAILED" -ne 0 ]; then
  echo "some checks FAILED"
  exit 1
fi
echo "all checks passed"
