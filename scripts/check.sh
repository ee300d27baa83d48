#!/usr/bin/env bash
# Full local gate: the tier-1 verify (plain build + ctest, experiments
# included) plus an ASan/UBSan build of the test suite. Usage:
#
#   scripts/check.sh            # both passes
#   scripts/check.sh --fast     # tier-1 only
#   scripts/check.sh --asan     # ASan/UBSan pass only (the sanitized
#                               # half of the default gate; the CI asan
#                               # job runs exactly this)
#   scripts/check.sh --tsan     # ThreadSanitizer pass only (own build
#                               # dir: TSan cannot share ASan's), running
#                               # the concurrency-bearing suites
#   scripts/check.sh --bench-smoke  # Release build of the E10 engine
#                               # bench, tiny-parameter run, checks that
#                               # BENCH_engine.json is produced (incl.
#                               # the E21 batched rows, their
#                               # batched-vs-serial speedup floor and
#                               # split counters, plus the E22
#                               # sequential-estimator rows and their
#                               # 2x draw-reduction floor); also
#                               # runs the E18 service soak at <=1k
#                               # sessions and checks BENCH_service.json
#                               # (the CI bench-smoke job runs exactly
#                               # this)
#   scripts/check.sh --portable # portable-baseline build with
#                               # -DCDSE_NATIVE_ARCH=OFF; runs the RNG /
#                               # binomial / split-row / batch-sampler
#                               # suites, proving the baseline-ISA build
#                               # passes the chi-square and determinism
#                               # gates (the CI portable-baseline job
#                               # runs exactly this)
#   scripts/check.sh --verdict  # the verdict benchmark's own test
#                               # (verdictbench/selftest.py): builds
#                               # verdict_bench in Release and checks, on
#                               # every workload, correct verdicts,
#                               # identical record lines across two runs
#                               # and every metric present (the CI
#                               # verdict-selftest job runs exactly this)
#
# The sanitized passes skip the experiment-labelled ctest entries: the
# harnesses re-run under the plain pass already, and sanitizer slowdown
# would push the long sweeps past their timeouts.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

run_asan() {
  echo "== sanitized: ASan/UBSan build + unit ctest =="
  cmake -B build-san -S . -DCDSE_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$JOBS"
  ctest --test-dir build-san --output-on-failure -j "$JOBS" -LE experiment
}

if [[ "${1:-}" == "--asan" ]]; then
  run_asan
  echo "== asan pass clean =="
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  # The suites that exercise real concurrency: the shared-snapshot layer
  # (frozen-table reads racing residue overflows), the thread pool, the
  # interning suites (ActionTable shared-lock intern fast path and its
  # lock-free name reads racing appends, grown-vs-reserved differential,
  # sharded-interner concurrent interning + epoch GC), the
  # session service / soak driver (sharded session table over the pool),
  # the exact cone-measure engine (ParallelConeEngine subtree fan-out,
  # parallel distinguisher search, parallel sweep grids), and the
  # quotient reduction (shared minimized snapshots behind per-worker
  # QuotientPsioa views in all of the above), the batched sampler
  # (frozen split rows read lock-free by lockstep workers),
  # the sequential estimator (incremental waves + stratified
  # per-stratum cursors fanned out over the pool), the sampled
  # epsilon's error contract (Balance: factories and insight functions
  # that throw inside pool-run waves), and the deadline / retry guard of
  # ParallelSampler's serial walk (GuardedSampler: retries build fresh
  # views over the shared residue while other chunks sample).
  echo "== tsan: ThreadSanitizer build + concurrency suites =="
  cmake -B build-tsan -S . -DCDSE_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target snapshot_test thread_pool_test intern_test intern_gc_test \
             service_soak_test exact_engine_test quotient_test \
             multinomial_test batch_sampler_test seq_estimator_test \
             insight_fdist_test fault_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'Snapshot|ThreadPool|FrozenChoice|Parallel|Intern|ExactEngine|Quotient|ShardedInternGc|DynamicPcaGc|MacSessionSvc|SoakLatency|Soak|AliasFrozen|BatchSampler|SeqEst|Balance\.|GuardedSampler'
  echo "== tsan pass clean =="
  exit 0
fi

if [[ "${1:-}" == "--portable" ]]; then
  # Portable baseline: no -march=native. The RNG, binomial, split-row and
  # batch-sampler suites carry the chi-square and determinism gates, so
  # a pass here certifies the baseline-ISA build samples the same laws --
  # the lowest common denominator any deployment target gets.
  echo "== portable: CDSE_NATIVE_ARCH=OFF build + sampling suites =="
  cmake -B build-portable -S . -DCDSE_NATIVE_ARCH=OFF >/dev/null
  cmake --build build-portable -j "$JOBS" \
    --target rng_test multinomial_test batch_sampler_test
  ctest --test-dir build-portable --output-on-failure -j "$JOBS" \
    -R 'Xoshiro|Binomial|SplitRow|AliasBuild|AliasDraws|AliasFrozen|BatchSampler'
  echo "== portable pass clean =="
  exit 0
fi

if [[ "${1:-}" == "--verdict" ]]; then
  # A tally change that flips a verdict or breaks work identity between
  # two runs shows here: selftest.py drives run.py over every workload.
  echo "== verdict: verdict benchmark self-test =="
  python3 verdictbench/selftest.py
  echo "== verdict self-test clean =="
  exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  # Small-parameter Release run of the E10 engine bench: proves the bench
  # binary runs end to end and emits its JSON artifact. Thresholds are
  # not checked here -- numbers from a shared runner are noise; the gate
  # is exit status + a non-empty artifact.
  echo "== bench-smoke: Release bench_engine_throughput =="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-bench -j "$JOBS" \
    --target bench_engine_throughput bench_optimal_distinguisher \
             bench_service_soak
  (cd build-bench && ./bench/bench_engine_throughput \
    --benchmark_min_time=0.05 --benchmark_out=BENCH_engine.json \
    --benchmark_out_format=json)
  test -s build-bench/BENCH_engine.json
  # The E20/E21 rows: the serial snapshot row and the batched rows on
  # the MAC stack and on the ledger PCA stack must all be present...
  grep -q BM_SnapshotParallelFdist build-bench/BENCH_engine.json
  grep -q BM_BlockBatchedFdist build-bench/BENCH_engine.json
  grep -q BM_BlockBatchedLedgerFdist build-bench/BENCH_engine.json
  # ...the batched engine must beat the serial walk over the same frozen
  # MAC snapshot, and its counters must show the class splits at work:
  # elided singleton draws on the MAC stack, binomial splits on the
  # ledger. Absolute numbers from a shared runner are noise, but the
  # ratio of two rows in one process is stable, so a 10x floor has a
  # wide margin while still catching a regression that falls off the
  # batched engine.
  python3 - <<'PY'
import json
with open("build-bench/BENCH_engine.json") as f:
    rows = {b["name"]: b for b in json.load(f)["benchmarks"]}
serial = rows["BM_SnapshotParallelFdist/1/real_time"]["items_per_second"]
mac = rows["BM_BlockBatchedFdist/1/real_time"]
ratio = mac["items_per_second"] / serial
print(f"E21 speedup floor: batched {mac['items_per_second']:.0f}/s / serial "
      f"{serial:.0f}/s = {ratio:.1f}x (floor 10x)")
assert ratio >= 10.0, f"batched engine only {ratio:.1f}x over serial (< 10x)"
assert mac["singleton_skips"] > 0, "MAC batched row elided no singleton draws"
ledger = rows["BM_BlockBatchedLedgerFdist/1/real_time"]
assert ledger["split_draws"] > 0, "ledger batched row drew no split binomials"
PY
  # E22: the sequential-estimator rows must land in the artifact, every
  # row's verdict must agree with the fixed-trial reference, and the MAC
  # implementation-check rows must clear a 2x draw-reduction floor
  # (measured ~9x above / ~21x below; draw counts are deterministic at a
  # fixed seed, so the floor is stable on shared runners).
  python3 - <<'PY'
import json
with open("build-bench/BENCH_engine.json") as f:
    rows = {r["name"]: r for r in json.load(f)["e22_rows"]}
assert rows, "e22_rows missing or empty"
for name, r in rows.items():
    assert r["verdict_agree"], f"{name}: sequential verdict disagrees"
for name in ("mac_impl_above", "mac_impl_below"):
    red = rows[name]["reduction"]
    print(f"E22 {name}: {rows[name]['fixed_draws']} -> "
          f"{rows[name]['seq_draws']} draws ({red:.1f}x)")
    assert red >= 2.0, f"{name}: draw reduction {red:.2f}x below 2x floor"
PY
  # E13/E13b/E13c self-check the engine-equivalence claims (serial
  # prefix-shared vs parallel search against the recorded reference
  # answer, raw vs bisimulation quotient) and emit the exact-engine
  # tables, including the quotient reduction-ratio rows.
  (cd build-bench && ./bench/bench_optimal_distinguisher)
  test -s build-bench/BENCH_exact.json
  # E18 at smoke scale: a small soak across the worker sweep plus the
  # GC differential and in-process fault drills; the full 500k-cycle
  # row set is a local/perf-runner concern. 20k lifecycles is the smoke
  # floor: the GC-differential predicate requires compaction to have
  # actually reclaimed, and shards only compact at >= 1024 entries --
  # below ~20k sessions no shard ever crosses that and the harness
  # reports NO RECLAIM.
  (cd build-bench && ./bench/bench_service_soak --sessions=20000)
  test -s build-bench/BENCH_service.json
  echo "== bench-smoke clean: build-bench/BENCH_engine.json," \
       "BENCH_exact.json and BENCH_service.json written =="
  exit 0
fi

echo "== tier-1: plain build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${1:-}" == "--fast" ]]; then
  echo "== done (fast mode: sanitized pass skipped) =="
  exit 0
fi

run_asan

echo "== all checks passed =="
