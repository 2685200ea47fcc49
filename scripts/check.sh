#!/usr/bin/env bash
# Tier-1 verification, five times:
#   1. the plain configuration (Release, -O3 -DNDEBUG: what CI and
#      benchmarks use), plus one short smoke pass each of
#      bench_integrity, of bench_end_to_end's bry cases, of
#      bench_prepared's engine cases, of bench_complement_join and of
#      bench_scan, and a check that
#      scripts/bench_compare.py flags a moved counter in the first's report,
#   2. a Debug configuration with -D_GLIBCXX_ASSERTIONS running the full
#      suite — every other build defines NDEBUG, so this is the one where
#      the program's asserts and the standard library's bounds checks
#      run, and
#   3. an ASan+UBSan configuration with failpoints compiled in, so the
#      fault-injection stress tests actually run and every injected
#      failure path is checked for leaks and UB, and
#   4. a TSan configuration running the parallel-execution and service
#      tests, so the morsel-driven runtime's sharing (morsel dispensers,
#      shared builds, sharded seen-sets, budget reconciliation) and the
#      service layer's admission/retry machinery are race-checked, and
#   5. a chaos sweep: the seeded fault-injection harness re-run across
#      fixed seeds against the failpoints build, asserting every reply
#      under randomized faults is either the fault-free oracle answer or
#      a clean retryable error.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== [1/5] plain build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# One short pass of the E17 bench; it aborts on a wrong constraint verdict.
./build/bench/bench_integrity --benchmark_min_time=0.01 \
  --benchmark_format=json >build/bench_integrity.json
# bench_compare.py on that report: against itself it must exit 0, against
# a copy with one counter moved it must exit 1.
python3 scripts/bench_compare.py build/bench_integrity.json \
  build/bench_integrity.json >/dev/null
python3 - build/bench_integrity.json build/bench_tampered.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
next(b for b in doc["benchmarks"] if "scanned" in b)["scanned"] += 1
json.dump(doc, open(sys.argv[2], "w"))
PY
status=0
python3 scripts/bench_compare.py build/bench_integrity.json \
  build/bench_tampered.json >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
  echo "bench_compare.py exited $status on a tampered counter, not 1" >&2
  exit 1
fi
# One short pass of the E9 bry cases; each aborts unless its answer
# equals the nested loop's.
./build/bench/bench_end_to_end --benchmark_filter=BM_EndToEnd_Bry \
  --benchmark_min_time=0.01 >/dev/null
# One short pass of the engine cases; batch size 1 aborts unless its
# answer equals the default batch size's.
./build/bench/bench_prepared --benchmark_filter=BM_Engine \
  --benchmark_min_time=0.01 >/dev/null
# One short pass of E3; the complement-join aborts unless its answer
# equals the conventional plan's.
./build/bench/bench_complement_join --benchmark_min_time=0.01 >/dev/null
# One short pass of E16; each zone-mapped scan aborts unless its answer
# equals the row path's on the same rows without zone maps and, on the
# selective cases, its zone maps pruned at least one segment.
./build/bench/bench_scan --benchmark_min_time=0.01 >/dev/null

echo "== [2/5] Debug + _GLIBCXX_ASSERTIONS build + tests =="
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS >/dev/null
cmake --build build-debug -j "$JOBS"
ctest --test-dir build-debug --output-on-failure -j "$JOBS"

echo "== [3/5] sanitized build (address;undefined) + failpoints + tests =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBRYQL_SANITIZE="address;undefined" \
  -DBRYQL_FAILPOINTS=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== [4/5] thread-sanitized build + parallel/service tests =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBRYQL_SANITIZE="thread" \
  -DBRYQL_FAILPOINTS=ON >/dev/null
cmake --build build-tsan -j "$JOBS"
# The parallel suite exercises every shared structure; plan-cache and
# prepared-query tests cover the concurrent QueryProcessor paths; the
# service and chaos suites cover admission, retry and fault injection
# under 8-way client concurrency.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'parallel|plan_cache|prepared|service'

echo "== [5/5] chaos seed sweep (failpoints build) =="
cmake -B build-chaos -S . -DBRYQL_FAILPOINTS=ON >/dev/null
cmake --build build-chaos -j "$JOBS" --target chaos_service_test
# Each seed fully determines the fault schedule; a failing seed
# reproduces with BRYQL_CHAOS_SEED=<seed> ./build-chaos/tests/chaos_service_test
for seed in 7 42 1989 4242 24601 99991 123456789 987654321; do
  echo "-- chaos seed $seed --"
  BRYQL_CHAOS_SEED="$seed" ./build-chaos/tests/chaos_service_test
done

echo "All checks passed."
