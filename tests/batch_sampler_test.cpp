// Batched lockstep sampler (sched/batch_sampler.hpp) differential
// suite: the acceptance gate for SamplingMode::kBatched.
//
//   validity      -- sample_executions returns genuine depth-bounded
//                    executions of the automaton.
//   determinism   -- batched runs are reproducible at fixed seed and
//                    pool size; stats confirm the row-lookup
//                    amortization actually happened.
//   vs exact      -- batched f-dists pass the chi-square GOF harness
//                    against the exact enumerator.
//   vs serial     -- the headline differential: serial and batched
//                    f-dists over one frozen snapshot of each stack in
//                    the exact-engine suite's zoo (composed,
//                    hidden+renamed, MAC, ledger, faulty channel) agree
//                    under the two-sample chi-square at every worker
//                    count in {1, 2, 4, 8}.
//
// Suite names all start with "BatchSampler" so scripts/check.sh --tsan
// can select the concurrency-bearing cases by regex.

#include "sched/batch_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/faulty.hpp"
#include "impl/implementation.hpp"
#include "protocols/channel.hpp"
#include "protocols/coinflip.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "stat_util.hpp"
#include "util/thread_pool.hpp"
#include "wave_tally.hpp"

namespace cdse {
namespace {

constexpr std::size_t kDepth = 6;
constexpr std::size_t kTrials = 20000;
const std::size_t kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------------------- stack zoo
// Same shapes as the exact-engine differential suite, under fresh "bs_"
// tags so the suites' action vocabularies stay disjoint.

PsioaFactory composed_factory(int seed, const std::string& tag) {
  return [seed, tag]() -> PsioaPtr {
    Xoshiro256 rng(seed * 7919 + 13);
    RandomPsioaConfig ca;
    ca.n_states = 3;
    ca.n_outputs = 2;
    ca.n_internals = 1;
    RandomPsioaConfig cb = ca;
    cb.input_candidates = acts({"iout0_" + tag + "a", "iout1_" + tag + "a"});
    auto a = make_random_psioa(tag + "_A", tag + "a", ca, rng);
    auto b = make_random_psioa(tag + "_B", tag + "b", cb, rng);
    return compose(PsioaPtr(a), PsioaPtr(b));
  };
}

PsioaFactory hidden_renamed_factory(int seed, const std::string& tag) {
  const PsioaFactory inner = composed_factory(seed, tag);
  return [inner, tag]() -> PsioaPtr {
    const ActionBijection g =
        ActionBijection::with_suffix(acts({"iout0_" + tag + "a"}), "#in");
    const ActionSet hidden = acts({"iout1_" + tag + "a"});
    return rename_actions(hide_actions(inner(), hidden), g);
  };
}

PsioaFactory mac_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    const RealIdealPair mac = make_otmac_pair(4, tag);
    auto env = make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
    auto adv = make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
    return compose(env, compose(mac.real.ptr(), adv));
  };
}

PsioaFactory ledger_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr { return make_ledger_system(2, tag).dynamic; };
}

PsioaFactory faulty_channel_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    FaultPlan plan;
    plan.drop = Rational(1, 8);
    plan.duplicate = Rational(1, 8);
    plan.delay = Rational(1, 4);
    return make_faulty_channel(tag, plan);
  };
}

SchedulerFactory uniform_factory(std::size_t depth) {
  return [depth]() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(depth);
  };
}

struct Stack {
  const char* label;
  PsioaFactory make;
};

std::vector<Stack> stack_zoo() {
  return {
      {"composed", composed_factory(3, "bs_c")},
      {"hidden_renamed", hidden_renamed_factory(5, "bs_h")},
      {"mac", mac_factory("bs_m")},
      {"ledger", ledger_factory("bs_l")},
      {"faulty_channel", faulty_channel_factory("bs_f")},
  };
}

// --------------------------------------------------------------- validity

TEST(BatchSamplerUnit, SampledExecutionsAreValidAndDepthBounded) {
  auto coin = make_coin("bs_val", Rational(1, 3));
  UniformScheduler sched(kDepth);
  Xoshiro256 rng(7);
  BatchStats stats;
  const auto execs =
      sample_executions(*coin, sched, rng, 500, kDepth, &stats);
  ASSERT_EQ(execs.size(), 500u);
  for (const ExecFragment& alpha : execs) {
    EXPECT_LE(alpha.length(), kDepth);
    EXPECT_EQ(alpha.fstate(), coin->start_state());
    EXPECT_TRUE(is_execution(*coin, alpha));
  }
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_EQ(stats.action_draws >= 500u, true);
}

TEST(BatchSamplerUnit, ZeroTrialsIsEmpty) {
  auto coin = make_coin("bs_zero", Rational(1, 2));
  UniformScheduler sched(kDepth);
  Xoshiro256 rng(7);
  EXPECT_TRUE(sample_executions(*coin, sched, rng, 0, kDepth).empty());
}

TEST(BatchSamplerUnit, ClassGroupingAmortizesRowLookups) {
  // The whole point of the batch: row fetches scale with *classes*, not
  // with executions. 20000 coin trials over a handful of states must
  // need orders of magnitude fewer lookups than draws.
  auto coin = make_coin("bs_amort", Rational(1, 3));
  UniformScheduler sched(kDepth);
  Xoshiro256 rng(11);
  BatchStats stats;
  (void)sample_executions(*coin, sched, rng, kTrials, kDepth, &stats);
  EXPECT_GE(stats.action_draws, kTrials);
  EXPECT_LT(stats.choice_lookups * 100, stats.action_draws);
  EXPECT_LT(stats.row_lookups * 100, stats.target_draws + 1);
  EXPECT_GT(stats.distinct_executions, 0u);
}

// ------------------------------------------------------------ determinism

TEST(BatchSamplerUnit, BatchedFdistIsSeedDeterministic) {
  auto coin = make_coin("bs_det", Rational(1, 4));
  UniformScheduler s1(kDepth);
  UniformScheduler s2(kDepth);
  TraceInsight f;
  const auto d1 = sample_fdist_batched(*coin, s1, f, kTrials, 42, kDepth);
  const auto d2 = sample_fdist_batched(*coin, s2, f, kTrials, 42, kDepth);
  ASSERT_EQ(d1.entries().size(), d2.entries().size());
  for (std::size_t i = 0; i < d1.entries().size(); ++i) {
    EXPECT_EQ(d1.entries()[i].first, d2.entries()[i].first);
    EXPECT_DOUBLE_EQ(d1.entries()[i].second, d2.entries()[i].second);
  }
}

TEST(BatchSampler, ParallelBatchedIsDeterministicAtFixedPoolSize) {
  ThreadPool pool(4);
  TraceInsight f;
  ParallelSampler sampler(mac_factory("bs_pdet"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  const auto d1 = sampler.sample_fdist(f, kTrials, 9, kDepth, pool,
                                       SamplingMode::kBatched);
  const auto d2 = sampler.sample_fdist(f, kTrials, 9, kDepth, pool,
                                       SamplingMode::kBatched);
  ASSERT_EQ(d1.entries().size(), d2.entries().size());
  for (std::size_t i = 0; i < d1.entries().size(); ++i) {
    EXPECT_EQ(d1.entries()[i].first, d2.entries()[i].first);
    EXPECT_DOUBLE_EQ(d1.entries()[i].second, d2.entries()[i].second);
  }
}

// -------------------------------------------------------------- vs exact

TEST(BatchSamplerUnit, BatchedFdistMatchesExactEnumerator) {
  auto coin = make_coin("bs_gof", Rational(1, 4));
  UniformScheduler sched(3);
  TraceInsight f;
  const auto exact = exact_fdist(*coin, sched, f, 10);
  UniformScheduler sched2(3);
  const auto batched =
      sample_fdist_batched(*coin, sched2, f, 40000, 17, 10);
  EXPECT_TRUE(testing::fdist_matches_exact(exact, batched, 40000));
}

// ------------------------------------------------------------- vs serial

TEST(BatchSampler, SnapshotBatchedMatchesSerialOverFrozenTables) {
  // The frozen-snapshot path (the one the E20 bench measures): one
  // prepared sampler serving both modes over the same shared tables.
  TraceInsight f;
  for (const Stack& stack : stack_zoo()) {
    ParallelSampler sampler(stack.make, uniform_factory(kDepth));
    WarmupPlan plan;
    plan.horizon = kDepth;
    sampler.prepare(plan, kDepth);
    for (std::size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      const auto serial = sampler.sample_fdist(f, kTrials, 303, kDepth, pool,
                                               SamplingMode::kSerial);
      const auto batched = sampler.sample_fdist(f, kTrials, 404, kDepth,
                                                pool, SamplingMode::kBatched);
      EXPECT_TRUE(testing::fdists_match(serial, kTrials, batched, kTrials))
          << stack.label << " at " << workers << " workers";
      const BatchStats& bs = sampler.last_batch_stats();
      EXPECT_GE(bs.action_draws, kTrials);
      EXPECT_GT(bs.distinct_executions, 0u);
    }
  }
}

// ----------------------------------------------------------- split kernel

/// Exact (bitwise) equality of two estimates -- the bar for "same
/// schedule", much stronger than the chi-square harness.
void expect_bit_identical(const Disc<Perception, double>& a,
                          const Disc<Perception, double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.entries().size(), b.entries().size()) << what;
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first) << what;
    EXPECT_EQ(a.entries()[i].second, b.entries()[i].second) << what;
  }
}

TEST(BatchSampler, BlockCountersAccountForRngTraffic) {
  TraceInsight f;
  ParallelSampler sampler(mac_factory("bs_ctr"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  ThreadPool pool(2);
  (void)sampler.sample_fdist(f, kTrials, 808, kDepth, pool,
                             SamplingMode::kBatched);
  const BatchStats bs = sampler.last_batch_stats();
  // Logical draws count every draw, elided or not...
  EXPECT_GE(bs.action_draws, kTrials);
  // ...but the splits must have elided singleton rows (the MAC stack's
  // transitions are mostly deterministic) and drawn binomials for the
  // rest -- far fewer than one per logical draw.
  EXPECT_GT(bs.singleton_skips, 0u);
  EXPECT_GT(bs.split_draws, 0u);
  EXPECT_LT(bs.split_draws * 10, bs.action_draws + bs.target_draws);
}

/// Widest row a batched run over `snap` can split: the widest target
/// row, or a choice row over every compiled action of a state plus its
/// halt slot.
std::size_t widest_row(const CompiledSnapshot& snap) {
  std::size_t widest = 1;
  for (const auto& [q, fs] : snap.frozen_states()) {
    (void)q;
    widest = std::max(widest, fs.rows.size() + 1);
    for (const auto& [a, row] : fs.rows) {
      (void)a;
      widest = std::max(widest, row.split.size());
    }
  }
  return widest;
}

TEST(BatchSampler, SplitDrawsFollowClassesNotTrials) {
  // A million trials on the MAC stack: the binomials drawn are bounded
  // by the class steps times the widest row, while the logical draws
  // scale with the trials.
  constexpr std::size_t kMillion = 1000000;
  TraceInsight f;
  ParallelSampler sampler(mac_factory("bs_cls"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  ThreadPool pool(1);
  (void)sampler.sample_fdist(f, kMillion, 1212, kDepth, pool,
                             SamplingMode::kBatched);
  const BatchStats bs = sampler.last_batch_stats();
  const std::size_t widest = widest_row(*sampler.snapshot());
  ASSERT_GT(widest, 1u);
  EXPECT_GT(bs.split_draws, 0u);
  EXPECT_LE(bs.split_draws, bs.class_steps * (widest - 1));
  EXPECT_GE(bs.action_draws + bs.target_draws, kMillion);
}

// ------------------------------------------------------ incremental rounds

TEST(BatchSamplerUnit, RunRoundsResumeIsBitIdentical) {
  // run_rounds(a); run_rounds(b) must replay the exact schedule of
  // run_rounds(a + b): same fragments, same stats, same RNG state.
  auto coin = make_coin("bs_inc", Rational(1, 3));
  UniformScheduler s1(kDepth);
  UniformScheduler s2(kDepth);
  const Xoshiro256 rng(55);
  BatchSampler split(*coin, s1, 5000, rng, kDepth);
  BatchSampler whole(*coin, s2, 5000, rng, kDepth);
  std::size_t ran = 0;
  while (!split.done()) ran += split.run_rounds(2);
  whole.run_to_completion();
  EXPECT_EQ(ran, whole.rounds_done());
  EXPECT_EQ(split.trials_terminal(), whole.trials_terminal());
  EXPECT_EQ(split.trials_terminal(), 5000u);
  EXPECT_EQ(split.fragments(), whole.fragments());
  EXPECT_EQ(split.stats().action_draws, whole.stats().action_draws);
  EXPECT_EQ(split.stats().target_draws, whole.stats().target_draws);
  EXPECT_EQ(split.stats().distinct_executions,
            whole.stats().distinct_executions);
}

TEST(BatchSamplerUnit, AccumulateCountsIsMonotoneAcrossWaves) {
  // take_counts after every round hands out each terminal class once:
  // the running sum of its deltas only grows, and at completion it
  // equals one take_counts over a whole replay of the run.
  auto coin = make_coin("bs_mono", Rational(1, 3));
  UniformScheduler sched(kDepth);
  TraceInsight f;
  BatchSampler bs(*coin, sched, 5000, Xoshiro256(66), kDepth);
  Disc<Perception, double> tally;
  while (!bs.done()) {
    bs.run_rounds(1);
    const Disc<Perception, double> prev = tally;
    tally.merge(bs.take_counts(f));
    // Every previously seen perception keeps at least its old mass.
    for (const auto& [perc, count] : prev.entries()) {
      EXPECT_GE(tally.mass(perc), count);
    }
  }
  EXPECT_TRUE(bs.take_counts(f).empty());
  double total = 0.0;
  for (const auto& [perc, count] : tally.entries()) total += count;
  EXPECT_DOUBLE_EQ(total, 5000.0);
  UniformScheduler sched2(kDepth);
  BatchSampler whole(*coin, sched2, 5000, Xoshiro256(66), kDepth);
  whole.run_to_completion();
  expect_bit_identical(tally, whole.take_counts(f), "one fold");
}

TEST(BatchSampler, IncrementalRunToCompletionEqualsOneShot) {
  // The one-shot call is a single wave of the same run. Waves of one
  // round hand out the same integer class counts, which sum exactly, so
  // a run driven to completion matches it bit for bit, per worker count.
  TraceInsight f;
  ParallelSampler sampler(mac_factory("bs_iosh"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const auto oneshot = sampler.sample_fdist(f, kTrials, 909, kDepth, pool,
                                              SamplingMode::kBatched);
    IncrementalFdistRun run(sampler, f, kTrials, 909, kDepth, pool,
                            /*rounds_per_wave=*/1);
    const auto waved = testing::drive_waves(run);
    expect_bit_identical(oneshot, waved,
                         std::to_string(workers) + " workers");
  }
}

TEST(BatchSampler, IncrementalWavesReportProgressAndPartialTallies) {
  TraceInsight f;
  ParallelSampler sampler(mac_factory("bs_wave"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  ThreadPool pool(4);
  IncrementalFdistRun run(sampler, f, kTrials, 1001, kDepth, pool,
                          /*rounds_per_wave=*/1);
  std::vector<IncrementalFdistRun::WaveReport> reports;
  const auto dist = testing::drive_waves(
      run, [&](const IncrementalFdistRun::WaveReport& rep,
               const Disc<Perception, double>& partial) {
        reports.push_back(rep);
        if (rep.trials_done > 0) {
          double total = 0.0;
          for (const auto& [perc, w] : partial.entries()) total += w;
          EXPECT_NEAR(total, 1.0, 1e-9);  // normalized over trials_done
        }
        return true;
      });
  ASSERT_GT(reports.size(), 1u);  // depth 6 cannot finish in one round
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].wave, i + 1);
    EXPECT_EQ(reports[i].trials_requested, kTrials);
    if (i > 0) {
      EXPECT_GE(reports[i].trials_done, reports[i - 1].trials_done);
    }
  }
  EXPECT_TRUE(reports.back().done);
  EXPECT_EQ(reports.back().trials_done, kTrials);
  EXPECT_GE(run.batch_stats().action_draws, kTrials);
  double total = 0.0;
  for (const auto& [perc, w] : dist.entries()) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BatchSampler, IncrementalEarlyStopReturnsNormalizedPartial) {
  TraceInsight f;
  ParallelSampler sampler(ledger_factory("bs_stop"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  ThreadPool pool(2);
  IncrementalFdistRun run(sampler, f, kTrials, 2002, kDepth, pool,
                          /*rounds_per_wave=*/1);
  std::size_t waves_seen = 0;
  const auto dist = testing::drive_waves(
      run, [&](const IncrementalFdistRun::WaveReport&,
               const Disc<Perception, double>&) {
        ++waves_seen;
        return false;  // stop after the first wave
      });
  EXPECT_EQ(waves_seen, 1u);
  EXPECT_FALSE(run.done());
  double total = 0.0;
  for (const auto& [perc, w] : dist.entries()) total += w;
  if (!dist.entries().empty()) {
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(BatchSampler, IncrementalMatchesSerialStatistically) {
  // The chi-square gate through the incremental path: waved split-kernel
  // estimates remain statistically indistinguishable from the serial
  // reference.
  TraceInsight f;
  ParallelSampler sampler(mac_factory("bs_ichi"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  ThreadPool pool(4);
  const auto serial = sampler.sample_fdist(f, kTrials, 3003, kDepth, pool,
                                           SamplingMode::kSerial);
  IncrementalFdistRun run(sampler, f, kTrials, 4004, kDepth, pool,
                          /*rounds_per_wave=*/2);
  const auto waved = testing::drive_waves(run);
  EXPECT_TRUE(testing::fdists_match(serial, kTrials, waved, kTrials));
}

TEST(BatchSampler, IncrementalRejectsSerialMode) {
  // Sampled implementation checks drive incremental batched waves, which
  // kSerial has no round structure for: the request is rejected up front.
  TraceInsight f;
  ThreadPool pool(1);
  const PsioaFactory a = [] { return make_coin("bs_irej", Rational(1, 3)); };
  const PsioaFactory b = [] { return make_coin("bs_irej", Rational(1, 2)); };
  const std::vector<LabeledPsioaFactory> envs = {
      {"ctx", [] { return make_coin("bs_irej_ctx", Rational(1, 2)); }}};
  const std::vector<LabeledSchedulerFactory> schedulers = {
      {"uniform", uniform_factory(kDepth)}};
  EXPECT_THROW(check_implementation_sampled(
                   a, b, envs, schedulers, same_scheduler(), f, kDepth,
                   pool, SequentialPolicy::fixed(100), 1,
                   SamplingMode::kSerial),
               std::invalid_argument);
}

}  // namespace
}  // namespace cdse
