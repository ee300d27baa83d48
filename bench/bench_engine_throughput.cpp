// E10 / E20-E22 -- the engine rows the verdict benchmark (verdictbench/)
// does not measure, and the rows scripts/check.sh --bench-smoke gates on.
// google-benchmark microbenchmarks:
//   - the serial walk over one frozen snapshot (BM_SnapshotParallelFdist,
//     one worker view): the "before" row of the E21 batched-vs-serial
//     floor,
//   - the batched engine over the same snapshot on the MAC stack and on
//     the ledger PCA stack (BM_BatchedFdist, BM_BatchedLedgerFdist),
//     with their class-split counters,
//   - composite transition evaluation and the PCA constraint check,
// plus, after the timed rows, the E22 sequential-vs-fixed draw counts as
// a top-level "e22_rows" array. Warm-up and freeze, exact enumeration
// and the sequential verdicts are timed end to end by verdictbench/.
//
// Unless the caller passes its own --benchmark_out, results are also
// written machine-readably to BENCH_engine.json in the working
// directory, so the rows are scriptably comparable across revisions.

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "impl/balance.hpp"
#include "impl/implementation.hpp"
#include "pca/check.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"

namespace cdse {
namespace {

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

/// The MAC system sampled by the serial walk over one shared frozen
/// snapshot: prepare() (warm-up + freeze) runs once outside the timed
/// region; each iteration walks `trials` executions one at a time
/// (sample_execution) on a fresh worker view and scheduler, as one chunk
/// of a serial fan-out would. The Arg is that fan-out's worker count;
/// only the 1-worker row runs, the denominator of the E21 floor.
void BM_SnapshotParallelFdist(benchmark::State& state) {
  const std::size_t trials = 2000;
  TraceInsight f;
  ParallelSampler sampler(
      [] { return make_mac_system("e10_i", true); },
      [] { return std::make_shared<UniformScheduler>(12, true); });
  WarmupPlan plan;
  plan.horizon = 12;
  sampler.prepare(plan, 12);
  std::uint64_t seed = 4;
  SnapshotStats stats;
  for (auto _ : state) {
    const auto view = sampler.worker_view();
    const SchedulerPtr sched = sampler.worker_scheduler();
    Xoshiro256 rng(seed++);
    Disc<Perception, double> counts;
    for (std::size_t i = 0; i < trials; ++i) {
      const ExecFragment alpha = sample_execution(*view, *sched, rng, 12);
      counts.add(f.apply(*view, alpha), 1.0);
    }
    benchmark::DoNotOptimize(counts);
    stats = view->snapshot_stats();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * trials));
  state.counters["snapshot_states"] =
      static_cast<double>(sampler.snapshot()->state_count());
  state.counters["snapshot_rows"] =
      static_cast<double>(sampler.snapshot()->row_count());
  state.counters["row_overflows"] = static_cast<double>(stats.row_overflows);
  state.counters["rss_kb"] = rss_kb();
}
BENCHMARK(BM_SnapshotParallelFdist)->Arg(1)->UseRealTime();

/// Shared body of the batched-engine rows (E20/E21): the chosen stack
/// over one frozen snapshot, stepped by the batched lockstep engine.
/// Emits the full BatchStats counter set into the JSON rows -- the
/// amortization pair (action_draws vs row_lookups) plus the class-split
/// accounting (split_draws / singleton_skips).
void BM_BatchedFdistStack(benchmark::State& state, const PsioaFactory& make,
                          std::size_t depth, bool local_only) {
  // 10x the serial snapshot row's trial count: the batched rows measure
  // the class-split regime (the paper's emulation checks want millions
  // of executions), and at 2000 trials the fixed per-round class
  // bookkeeping hides the splits' cost.
  const std::size_t trials = 20000;
  ThreadPool pool(1);  // unused: a batched run is one stream
  TraceInsight f;
  ParallelSampler sampler(make, [depth, local_only] {
    return std::make_shared<UniformScheduler>(depth, local_only);
  });
  WarmupPlan plan;
  plan.horizon = depth;
  sampler.prepare(plan, depth);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    auto dist = sampler.sample_fdist(f, trials, seed++, depth, pool);
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
/// batched engine -- multinomial class splits, singleton elision. A
/// batched f-dist is one run on one stream at every pool size, so only
/// the 1-worker row is timed.
void BM_BatchedFdist(benchmark::State& state) {
  BM_BatchedFdistStack(state, [] { return make_mac_system("e10_m", true); },
                       12, /*local_only=*/true);
}
BENCHMARK(BM_BatchedFdist)->Arg(1)->UseRealTime();

/// E21, ledger stack: the dynamic-creation PCA ledger ensemble -- wider
/// choice rows and genuinely probabilistic transitions, so the splits
/// draw binomials here rather than leaning on singleton elision.
void BM_BatchedLedgerFdist(benchmark::State& state) {
  // The non-local uniform scheduler keeps a residual halt slot in every
  // choice row, so the ledger rows exercise genuine binomial splits (the
  // MAC rows above lean on singleton elision instead).
  BM_BatchedFdistStack(state,
                       [] { return make_ledger_system(2, "e10_o").dynamic; },
                       8, /*local_only=*/false);
}
BENCHMARK(BM_BatchedLedgerFdist)->Arg(1)->UseRealTime();

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
