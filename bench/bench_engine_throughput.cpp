// E10 -- engineering baseline: throughput of the execution engines that
// every other experiment stands on. google-benchmark microbenchmarks:
//   - single-thread execution sampling (coin; composed real/ideal pair
//     on the memoized compiled fast-path),
//   - parallel Monte-Carlo f-dist estimation over a shared frozen
//     snapshot across thread counts, serial and batched (E20/E21),
//   - cold warm-up + freeze allocator traffic,
//   - exact cone enumeration,
//   - composite transition evaluation.
//
// Unless the caller passes its own --benchmark_out, results are also
// written machine-readably to BENCH_engine.json in the working
// directory, so the rows are scriptably comparable across revisions.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/faulty.hpp"
#include "impl/balance.hpp"
#include "impl/implementation.hpp"
#include "pca/check.hpp"
#include "protocols/coinflip.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/memo.hpp"
#include "psioa/random.hpp"
#include "sched/cone_measure.hpp"
#include "sched/exact_engine.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "util/state_interner.hpp"

// -- allocator traffic meter -------------------------------------------------
// Counting global operator new/delete for this binary only: the E10
// warm-up row reports how many heap allocations (count and bytes) one
// cold warm_automaton + freeze performs. The counters are atomic
// (warm-up itself is single-threaded, but the parallel sampling rows run
// concurrently with nothing -- keep it safe).

namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cdse {
namespace {

void BM_SampleCoinExecution(benchmark::State& state) {
  auto coin = make_coin("e10_a", Rational(1, 2));
  UniformScheduler sched(16);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_execution(*coin, sched, rng, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleCoinExecution);

/// Fills the memo/scheduler caches before the timed region so cached
/// rows measure steady-state throughput, not (throughput + first-touch
/// compilation). The warm-up draws from a dedicated stream; the timed
/// loop's stream is untouched, so timed draws are unchanged by warming.
void warm_caches(Psioa& sys, Scheduler& sched, std::size_t max_depth) {
  Xoshiro256 warm_rng(0xbe9cULL);
  for (int i = 0; i < 200; ++i) {
    (void)sample_execution(sys, sched, warm_rng, max_depth);
  }
}

void BM_SampleCoinExecutionMemoView(benchmark::State& state) {
  // Leaf automata are not migrated onto the memo base; memoize() wraps
  // them in a caching view instead. This row prices that wrapper.
  auto coin = memoize(make_coin("e10_a2", Rational(1, 2)));
  UniformScheduler sched(16);
  warm_caches(*coin, sched, 16);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_execution(*coin, sched, rng, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleCoinExecutionMemoView);

/// The closed one-time-MAC system of E7: probe environment, sink
/// adversary, and the real or ideal structured protocol stack.
PsioaPtr make_mac_system(const std::string& tag, bool real) {
  const RealIdealPair mac = make_otmac_pair(8, tag);
  auto env = make_probe_env_matching(
      "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
      act("forged_" + tag), act("acc_" + tag));
  auto adv = make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
  return compose(env,
                 compose(real ? mac.real.ptr() : mac.ideal.ptr(), adv));
}

void BM_SampleComposedExecution(benchmark::State& state, bool real,
                                const std::string& tag) {
  auto sys = make_mac_system(tag, real);
  UniformScheduler sched(12, true);
  // Warm outside the timed region, so the loop measures steady-state
  // throughput rather than first-touch signature resolution and row
  // compilation.
  warm_caches(*sys, sched, 12);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_execution(*sys, sched, rng, 12));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SampleComposedRealCached(benchmark::State& state) {
  BM_SampleComposedExecution(state, true, "e10_b");
}
BENCHMARK(BM_SampleComposedRealCached);

void BM_SampleComposedIdealCached(benchmark::State& state) {
  BM_SampleComposedExecution(state, false, "e10_g");
}
BENCHMARK(BM_SampleComposedIdealCached);

/// Resident set size in kB from /proc/self/status, 0 where unavailable;
/// reported as a counter on the snapshot rows to make the one-copy-of-
/// the-tables claim visible next to the throughput numbers.
double rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kb = 0.0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0.0;
}

/// The MAC system sampled serially over one shared frozen snapshot:
/// prepare() (warm-up + freeze) runs once outside the timed region,
/// workers are thin views.
void BM_SnapshotParallelFdist(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t trials = 2000;
  ThreadPool pool(threads);
  TraceInsight f;
  ParallelSampler sampler(
      [] { return make_mac_system("e10_i", true); },
      [] { return std::make_shared<UniformScheduler>(12, true); });
  WarmupPlan plan;
  plan.horizon = 12;
  sampler.prepare(plan, 12);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    auto dist = sampler.sample_fdist(f, trials, seed++, 12, pool);
    benchmark::DoNotOptimize(dist);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trials));
  state.counters["snapshot_states"] =
      static_cast<double>(sampler.snapshot()->state_count());
  state.counters["snapshot_rows"] =
      static_cast<double>(sampler.snapshot()->row_count());
  state.counters["row_overflows"] =
      static_cast<double>(sampler.last_stats().row_overflows);
  state.counters["rss_kb"] = rss_kb();
}
BENCHMARK(BM_SnapshotParallelFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Shared body of the batched-engine rows (E20/E21): the chosen stack
/// over one frozen snapshot, stepped by the batched lockstep engine.
/// Emits the full BatchStats counter set into the JSON rows -- the
/// amortization pair (action_draws vs row_lookups) plus the class-split
/// accounting (split_draws / singleton_skips).
void BM_BatchedFdistStack(benchmark::State& state, const PsioaFactory& make,
                          std::size_t depth, bool local_only) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  // 10x the serial snapshot row's trial count: the batched rows measure
  // the draw-kernel regime (the paper's emulation checks want millions
  // of executions), and at 2000 trials the fixed per-round class
  // bookkeeping hides the kernel's cost.
  const std::size_t trials = 20000;
  ThreadPool pool(threads);
  TraceInsight f;
  ParallelSampler sampler(make, [depth, local_only] {
    return std::make_shared<UniformScheduler>(depth, local_only);
  });
  WarmupPlan plan;
  plan.horizon = depth;
  sampler.prepare(plan, depth);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    auto dist = sampler.sample_fdist(f, trials, seed++, depth, pool,
                                     SamplingMode::kBatched);
    benchmark::DoNotOptimize(dist);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trials));
  const BatchStats& bs = sampler.last_batch_stats();
  state.counters["action_draws"] = static_cast<double>(bs.action_draws);
  state.counters["target_draws"] = static_cast<double>(bs.target_draws);
  state.counters["row_lookups"] = static_cast<double>(bs.row_lookups);
  state.counters["choice_lookups"] = static_cast<double>(bs.choice_lookups);
  state.counters["distinct_execs"] =
      static_cast<double>(bs.distinct_executions);
  state.counters["split_draws"] = static_cast<double>(bs.split_draws);
  state.counters["singleton_skips"] =
      static_cast<double>(bs.singleton_skips);
  state.counters["rss_kb"] = rss_kb();
}

/// E20/E21: the MAC workload of BM_SnapshotParallelFdist stepped by the
/// batched engine -- multinomial class splits, singleton elision. (The
/// row keeps the name it had under the block draw kernel the splits
/// replaced.) A batched f-dist is one run on one stream at every pool
/// size, so only the 1-worker row is timed: more workers would time the
/// same single-stream run.
void BM_BlockBatchedFdist(benchmark::State& state) {
  BM_BatchedFdistStack(state, [] { return make_mac_system("e10_m", true); },
                       12, /*local_only=*/true);
}
BENCHMARK(BM_BlockBatchedFdist)->Arg(1)->UseRealTime();

/// E21, ledger stack: the dynamic-creation PCA ledger ensemble -- wider
/// choice rows and genuinely probabilistic transitions, so the splits
/// draw binomials here rather than leaning on singleton elision.
void BM_BlockBatchedLedgerFdist(benchmark::State& state) {
  // The non-local uniform scheduler keeps a residual halt slot in every
  // choice row, so the ledger rows exercise genuine binomial splits (the
  // MAC rows above lean on singleton elision instead).
  BM_BatchedFdistStack(state,
                       [] { return make_ledger_system(2, "e10_o").dynamic; },
                       8, /*local_only=*/false);
}
BENCHMARK(BM_BlockBatchedLedgerFdist)->Arg(1)->UseRealTime();

/// A state-rich two-component ensemble for the cold warm-up rows. The
/// MAC stack of E7 tops out around twenty composite states, which would
/// price only the interner's fixed costs (first arena chunk, reserved
/// tables); this pair of wide random automata, cross-wired through each
/// other's outputs, gives the BFS warm-up hundreds of composite states
/// to intern -- the per-key regime the arena interner targets.
PsioaPtr make_wide_ensemble(const std::string& tag) {
  Xoshiro256 rng(0x51deULL);
  RandomPsioaConfig ca;
  ca.n_states = 24;
  ca.n_outputs = 3;
  ca.n_internals = 1;
  RandomPsioaConfig cb = ca;
  ca.input_candidates = acts(
      {"rout0_" + tag + "b", "rout1_" + tag + "b", "rout2_" + tag + "b"});
  cb.input_candidates = acts(
      {"rout0_" + tag + "a", "rout1_" + tag + "a", "rout2_" + tag + "a"});
  auto a = make_random_psioa(tag + "_A", tag + "a", ca, rng);
  auto b = make_random_psioa(tag + "_B", tag + "b", cb, rng);
  return compose(PsioaPtr(a), PsioaPtr(b));
}

/// Cold warm-up + freeze: every iteration builds a fresh ParallelSampler
/// over the wide ensemble, runs the full BFS warm-up (prepare) and a
/// short parallel sample over the frozen snapshot, reporting allocator
/// traffic, probe counts and interner-attributed bytes.
void BM_ColdWarmupFreeze(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::string tag = "e10_k";
  ThreadPool pool(threads);
  TraceInsight f;
  std::uint64_t seed = 6;
  InternStats last{};
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_calls = 0;
  for (auto _ : state) {
    const std::uint64_t b0 =
        g_alloc_bytes.load(std::memory_order_relaxed);
    const std::uint64_t c0 =
        g_alloc_calls.load(std::memory_order_relaxed);
    ParallelSampler sampler(
        [&tag] { return make_wide_ensemble(tag); },
        [] { return std::make_shared<UniformScheduler>(12, true); });
    WarmupPlan plan;
    plan.horizon = 12;
    plan.reserve_states = 600;  // ensemble tops out at 24*24 tuples
    sampler.prepare(plan, 12);
    auto dist = sampler.sample_fdist(f, 500, seed++, 12, pool);
    benchmark::DoNotOptimize(dist);
    alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
    alloc_calls = g_alloc_calls.load(std::memory_order_relaxed) - c0;
    last = sampler.residue_intern_stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["alloc_bytes"] = static_cast<double>(alloc_bytes);
  state.counters["alloc_calls"] = static_cast<double>(alloc_calls);
  state.counters["intern_keys"] = static_cast<double>(last.keys);
  state.counters["intern_bytes"] = static_cast<double>(last.arena_bytes);
  state.counters["intern_chunks"] = static_cast<double>(last.arena_chunks);
  state.counters["intern_probes"] = static_cast<double>(last.probes);
  state.counters["intern_rehashes"] = static_cast<double>(last.rehashes);
  state.counters["rss_kb"] = rss_kb();
}
BENCHMARK(BM_ColdWarmupFreeze)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ExactConeEnumeration(benchmark::State& state) {
  // The iterative pending-edge enumerator over a coin's cone.
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  auto coin = make_coin("e10_d", Rational(1, 2));
  UniformScheduler sched(depth);
  TraceInsight f;
  ConeStats stats;
  for (auto _ : state) {
    stats = ConeStats{};
    benchmark::DoNotOptimize(exact_fdist(*coin, sched, f, depth, &stats));
  }
  state.counters["frames_peak"] = static_cast<double>(stats.frames_peak);
  state.counters["frames_pushed"] = static_cast<double>(stats.frames_pushed);
  state.counters["leaves"] = static_cast<double>(stats.leaves);
}
BENCHMARK(BM_ExactConeEnumeration)->Arg(6)->Arg(9)->Arg(12);

void BM_ParallelExactFdist(benchmark::State& state) {
  // Deterministic parallel exact f-dist of a faulty channel (fault
  // branching gives the cone real width): one frozen snapshot, subtree
  // fan-out over the pool. The result is bit-identical at every Arg.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = 9;
  ParallelConeEngine engine(
      [] {
        FaultPlan plan;
        plan.drop = Rational(1, 8);
        plan.duplicate = Rational(1, 8);
        plan.delay = Rational(1, 4);
        return make_faulty_channel("e10_pf", plan);
      },
      [depth] { return std::make_shared<UniformScheduler>(depth); });
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = depth;
  engine.prepare(plan, depth);
  ThreadPool pool(threads);
  TraceInsight f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.exact_fdist(f, depth, pool));
  }
  const ConeStats& s = engine.last_stats();
  state.counters["splits"] = static_cast<double>(s.splits);
  state.counters["frames_pushed"] = static_cast<double>(s.frames_pushed);
  state.counters["leaves"] = static_cast<double>(s.leaves);
}
BENCHMARK(BM_ParallelExactFdist)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_CompositeTransition(benchmark::State& state) {
  const LedgerSystem sys = make_ledger_system(3, "e10_e");
  const State q0 = sys.dynamic->start_state();
  const ActionId open1 = act("open1_e10_e");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.dynamic->transition(q0, open1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompositeTransition);

void BM_PcaConstraintCheck(benchmark::State& state) {
  for (auto _ : state) {
    const LedgerSystem sys = make_ledger_system(2, "e10_f");
    benchmark::DoNotOptimize(check_pca_constraints(*sys.dynamic, 5));
  }
}
BENCHMARK(BM_PcaConstraintCheck);

// -- E22: sequential vs fixed-trial draw accounting --------------------------
// Not a timed microbenchmark: the deliverable is the logical draw count
// of the anytime-valid sequential estimator against the fixed-trial
// reference at equal verdict, on the one-time-MAC implementation check
// (k = 4, exact eps = 1/16 under the forgery word). The rows land as a
// top-level "e22_rows" array in the benchmark JSON so check.sh
// --bench-smoke can gate on the draw-reduction floor.

struct E22Row {
  std::string name;
  double threshold = 0.0;
  std::uint64_t fixed_draws = 0;
  std::uint64_t seq_draws = 0;
  double reduction = 0.0;
  bool verdict_agree = false;
  double estimate = 0.0;
};

std::vector<E22Row> run_e22() {
  const std::string tag = "e22m";
  TraceInsight f;
  ThreadPool pool(8);
  const std::size_t depth = 12;
  const std::size_t budget = std::size_t{1} << 16;
  const RealIdealPair mac = make_otmac_pair(4, tag);
  const PsioaFactory a = [mac] { return mac.real.ptr(); };
  const PsioaFactory b = [mac] { return mac.ideal.ptr(); };
  const std::vector<LabeledPsioaFactory> envs = {
      {"probe", [tag]() -> PsioaPtr {
         auto env = make_probe_env_matching(
             "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
             act("forged_" + tag), act("acc_" + tag));
         auto adv =
             make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
         return compose(env, adv);
       }}};
  const std::vector<LabeledSchedulerFactory> schedulers = {
      {"word", [tag]() -> SchedulerPtr {
         return std::make_shared<SequenceScheduler>(
             std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                                   act("forged_" + tag), act("acc_" + tag)},
             /*local_only=*/true);
       }}};

  std::vector<E22Row> rows;
  const std::pair<const char*, double> grid_cases[] = {
      {"mac_impl_above", 0.03}, {"mac_impl_below", 0.2}};
  for (const auto& [name, thr] : grid_cases) {
    const SampledImplementationReport seq = check_implementation_sampled(
        a, b, envs, schedulers, same_scheduler(), f, depth, pool,
        SequentialPolicy::deciding(thr, budget, 1e-3), 97);
    SequentialPolicy fp = SequentialPolicy::fixed(budget);
    fp.threshold = thr;
    const SampledImplementationReport fixed = check_implementation_sampled(
        a, b, envs, schedulers, same_scheduler(), f, depth, pool, fp, 97);
    E22Row row;
    row.name = name;
    row.threshold = thr;
    row.fixed_draws = fixed.total_draws;
    row.seq_draws = seq.total_draws;
    row.reduction = seq.total_draws > 0
                        ? static_cast<double>(fixed.total_draws) /
                              static_cast<double>(seq.total_draws)
                        : 0.0;
    row.verdict_agree = seq.rows[0].verdict != SeqVerdict::kUndecided &&
                        seq.rows[0].verdict == fixed.rows[0].verdict;
    row.estimate = seq.rows[0].eps;
    rows.push_back(row);
  }

  // Importance splitting: exact prefix strata at depth 2 + conditioned
  // cursors, against the same fixed-trial plain reference.
  const PsioaFactory side_real = [tag] {
    const RealIdealPair pair = make_otmac_pair(4, tag + "s");
    auto env = make_probe_env_matching(
        "env_" + tag + "s", {act("auth_" + tag + "s")},
        acts({"rejected_" + tag + "s"}), act("forged_" + tag + "s"),
        act("acc_" + tag + "s"));
    auto adv = make_sink_adversary("adv_" + tag + "s", {},
                                   acts({"forge_" + tag + "s"}));
    return compose(env, compose(pair.real.ptr(), adv));
  };
  const PsioaFactory side_ideal = [tag] {
    const RealIdealPair pair = make_otmac_pair(4, tag + "s");
    auto env = make_probe_env_matching(
        "env_" + tag + "s", {act("auth_" + tag + "s")},
        acts({"rejected_" + tag + "s"}), act("forged_" + tag + "s"),
        act("acc_" + tag + "s"));
    auto adv = make_sink_adversary("adv_" + tag + "s", {},
                                   acts({"forge_" + tag + "s"}));
    return compose(env, compose(pair.ideal.ptr(), adv));
  };
  const SchedulerFactory word = [tag]() -> SchedulerPtr {
    return std::make_shared<SequenceScheduler>(
        std::vector<ActionId>{
            act("auth_" + tag + "s"), act("forge_" + tag + "s"),
            act("forged_" + tag + "s"), act("acc_" + tag + "s")},
        /*local_only=*/true);
  };
  {
    SequentialPolicy sp = SequentialPolicy::deciding(0.03, budget, 1e-3);
    sp.split_depth = 2;
    const SequentialEpsilon split = sequential_balance_epsilon(
        side_real, word, side_ideal, word, f, sp, 101, depth, pool);
    SequentialPolicy fp = SequentialPolicy::fixed(budget);
    fp.threshold = 0.03;
    const SequentialEpsilon fixed = sequential_balance_epsilon(
        side_real, word, side_ideal, word, f, fp, 101, depth, pool);
    E22Row row;
    row.name = "mac_split_above";
    row.threshold = 0.03;
    row.fixed_draws = fixed.draws;
    row.seq_draws = split.draws;
    row.reduction = split.draws > 0 ? static_cast<double>(fixed.draws) /
                                          static_cast<double>(split.draws)
                                    : 0.0;
    row.verdict_agree = split.verdict != SeqVerdict::kUndecided &&
                        split.verdict == fixed.verdict;
    row.estimate = split.estimate;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

/// Runs the E22 comparison and renders the rows as a JSON array, for
/// injection into the benchmark output file (see main).
std::string e22_rows_json() {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const E22Row& row : run_e22()) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << row.name << "\", \"threshold\": "
       << row.threshold << ", \"fixed_draws\": " << row.fixed_draws
       << ", \"seq_draws\": " << row.seq_draws
       << ", \"reduction\": " << row.reduction << ", \"verdict_agree\": "
       << (row.verdict_agree ? "true" : "false")
       << ", \"estimate\": " << row.estimate << "}";
  }
  os << "\n  ]";
  return os.str();
}

}  // namespace cdse

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Default machine-readable output unless the caller chose their own.
  std::string out_flag = "--benchmark_out=BENCH_engine.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::string out_path = "BENCH_engine.json";
  bool caller_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--benchmark_out", 0) == 0) {
      caller_out = true;
      const auto eq = arg.find('=');
      if (arg.rfind("--benchmark_out=", 0) == 0 && eq != std::string::npos) {
        out_path = arg.substr(eq + 1);
      }
    }
  }
  if (!caller_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // E22 post-pass: run the sequential-vs-fixed comparison and splice the
  // rows into the JSON report as a top-level "e22_rows" key.
  {
    const std::string rows = cdse::e22_rows_json();
    std::ifstream in(out_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      std::string text = buf.str();
      in.close();
      const auto pos = text.rfind('}');
      if (pos != std::string::npos) {
        text.insert(pos, ",\n  \"e22_rows\": " + rows + "\n");
        std::ofstream out(out_path, std::ios::trunc);
        out << text;
      }
    }
  }
  return 0;
}
