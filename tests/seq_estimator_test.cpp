// Sequential-testing estimator suite (sched/seq_estimator.hpp +
// impl/balance.hpp sequential paths): the acceptance gate for the
// anytime-valid early-stopping layer and the importance-splitting
// estimator.
//
//   unit      -- spending schedule, radius formulas, verdict latching.
//   waves     -- IncrementalFdistRun: auto-tune contract, delta-merge
//                cost accounting (merge_entries), completed-run
//                bit-identity with the one-shot (single-wave) path.
//   coverage  -- simulation: the realized false-decision rate of the
//                confidence sequence stays under delta across seeded
//                replicates (the plug-in witness-event approximation is
//                pinned empirically, per the module doc).
//   zoo       -- sequential_balance_epsilon agrees with the exact
//                epsilon's side of the threshold on the five-stack zoo
//                at every worker count in {1, 2, 4, 8}, stopping early.
//   split     -- importance splitting: strata masses are exact, the
//                per-stratum conditional samplers and the reweighted
//                stratified f-dist pass the chi-square gates against
//                exact enumeration, and stratified tallies are
//                worker-count independent.
//   impl      -- sampled implementation grid + sequential family sweep:
//                verdicts match the fixed-trial reference with at least
//                a 2x draw reduction.
//
// Suite names all start with "SeqEst" so scripts/check.sh --tsan can
// select the concurrency-bearing cases by regex.

#include "sched/seq_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/faulty.hpp"
#include "impl/balance.hpp"
#include "impl/family_sweep.hpp"
#include "impl/implementation.hpp"
#include "protocols/channel.hpp"
#include "protocols/coinflip.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/cone_measure.hpp"
#include "sched/exact_engine.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "stat_util.hpp"
#include "wave_tally.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

constexpr std::size_t kDepth = 6;
constexpr std::size_t kTrials = 20000;
const std::size_t kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------------------- stack zoo
// Same shapes as the batched-sampler differential suite, under fresh
// "se_" tags so the suites' action vocabularies stay disjoint.

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

/// E || MAC(k) || adv; `real` selects the side. Under the canonical
/// forgery word the exact real-vs-ideal epsilon is 2^-k.
PsioaFactory mac_side_factory(const std::string& tag, bool real) {
  return [tag, real]() -> PsioaPtr {
    const RealIdealPair mac = make_otmac_pair(4, tag);
    auto env = make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
    auto adv = make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
    const StructuredPsioa& side = real ? mac.real : mac.ideal;
    return compose(env, compose(side.ptr(), adv));
  };
}

SchedulerFactory mac_word_factory(const std::string& tag) {
  return [tag]() -> SchedulerPtr {
    return std::make_shared<SequenceScheduler>(
        std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                              act("forged_" + tag), act("acc_" + tag)},
        /*local_only=*/true);
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
  /// Small-support print insight for the self-pair below-decisions:
  /// certifying "below" on a support of size k needs n >> k / eps^2
  /// (see the seq_estimator module doc), so the zoo restricts each
  /// stack's perception to one or two characteristic actions. The
  /// full-trace insight stays in play via the MAC and determinism
  /// cases, where the word scheduler keeps the support small.
  std::shared_ptr<InsightFunction> insight;
};

std::vector<Stack> stack_zoo() {
  return {
      {"composed", composed_factory(3, "se_c"),
       std::make_shared<PrintInsight>(acts({"iout0_se_ca"}))},
      {"hidden_renamed", hidden_renamed_factory(5, "se_h"),
       std::make_shared<PrintInsight>(acts({"iout0_se_ha#in"}))},
      {"mac", mac_side_factory("se_m", true),
       std::make_shared<PrintInsight>(acts({"forged_se_m"}))},
      {"ledger", ledger_factory("se_l"),
       std::make_shared<PrintInsight>(acts({"ack1_se_l"}))},
      {"faulty_channel", faulty_channel_factory("se_f"),
       std::make_shared<PrintInsight>(acts({"recv0_se_f"}))},
  };
}

// ------------------------------------------------------------------ unit

TEST(SeqEstUnit, SpendingScheduleSumsToDelta) {
  const double delta = 0.05;
  double spent = 0.0;
  for (std::size_t w = 1; w <= 100000; ++w) spent += seq_spend(delta, w);
  EXPECT_LE(spent, delta + 1e-12);
  EXPECT_GT(spent, delta * 0.999);  // sum_w 1/(w(w+1)) telescopes to 1
  EXPECT_GT(seq_spend(delta, 1), seq_spend(delta, 2));
}

TEST(SeqEstUnit, HoeffdingRadiusMatchesClosedForm) {
  const double delta = 1e-4;
  const double n = 4096.0;
  EXPECT_NEAR(seq_hoeffding_radius(1.0 / n, delta),
              std::sqrt(std::log(2.0 / delta) / (2.0 * n)), 1e-12);
  EXPECT_EQ(seq_hoeffding_radius(0.0, delta), 0.0);  // exact side
  EXPECT_EQ(seq_hoeffding_radius(1.0 / n, 0.0), 1.0);
  // Stratified scale: two strata at weight 1/2 and n/2 samples each give
  // 2 * (1/4) / (n/2) = 1/n -- same radius as the unstratified mean.
  const double scale = 2.0 * 0.25 / (n / 2.0);
  EXPECT_NEAR(seq_hoeffding_radius(scale, delta),
              seq_hoeffding_radius(1.0 / n, delta), 1e-12);
}

TEST(SeqEstUnit, BernsteinBeatsHoeffdingAtLowVariance) {
  const double delta = 1e-4;
  const double scale = 1.0 / 8192.0;
  // Witness event probability 1/16: the variance term should cut the
  // radius well below the distribution-free bound.
  EXPECT_LT(seq_bernstein_radius(0.0625, scale, delta),
            0.7 * seq_hoeffding_radius(scale, delta));
  // And never exceed it, at any plug-in mean.
  for (double mean : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_LE(seq_bernstein_radius(mean, scale, delta),
              seq_hoeffding_radius(scale, delta) + 1e-15);
  }
}

TEST(SeqEstUnit, VerdictsFromSyntheticTalliesAndLatching) {
  SequentialPolicy policy = SequentialPolicy::deciding(0.1, 1u << 20, 0.01);
  SeqEstimator est(policy);
  // Far-above case: left puts 60% on "a", right 10% -- eps = 0.5.
  const std::size_t n = 8192;
  Disc<Perception, double> l, r;
  l.add("a", 0.6 * n);
  l.add("b", 0.4 * n);
  r.add("a", 0.1 * n);
  r.add("b", 0.9 * n);
  const SeqDecision d = est.look(l, 0, r, 0, n, 2 * n);
  EXPECT_EQ(d.verdict, SeqVerdict::kAboveThreshold);
  EXPECT_NEAR(d.estimate, 0.5, 1e-12);
  EXPECT_EQ(d.looks, 1u);
  // Latching: contradictory tallies after a verdict change nothing.
  const SeqDecision d2 = est.look(l, 0, l, 0, n, 4 * n);
  EXPECT_EQ(d2.verdict, SeqVerdict::kAboveThreshold);
  EXPECT_EQ(est.looks(), 1u);
}

TEST(SeqEstUnit, CensoringSlackBlocksPrematureVerdicts) {
  SequentialPolicy policy = SequentialPolicy::deciding(0.15, 1u << 20, 0.01);
  const std::size_t n = 8192;
  Disc<Perception, double> l, r;
  l.add("a", 0.2 * n);
  l.add("b", 0.8 * n);
  r.add("a", 0.2 * n);
  r.add("b", 0.8 * n);
  // Identical tallies: decidedly below... unless a third of the trials
  // are still live, in which case the bracket must hold the verdict.
  SeqEstimator settled(policy);
  EXPECT_EQ(settled.look(l, 0, r, 0, n, n).verdict,
            SeqVerdict::kBelowThreshold);
  SeqEstimator censored(policy);
  const SeqDecision d = censored.look(l, n / 3, r, n / 3, n, n);
  EXPECT_EQ(d.verdict, SeqVerdict::kUndecided);
  EXPECT_GT(d.censor_slack, 0.3);
}

TEST(SeqEstUnit, FixedPolicyNeverDecides) {
  SequentialPolicy policy = SequentialPolicy::fixed(4096);
  EXPECT_TRUE(policy.active());
  EXPECT_FALSE(policy.sequential());
  SeqEstimator est(policy);
  Disc<Perception, double> l, r;
  l.add("a", 4096.0);
  r.add("b", 4096.0);
  EXPECT_EQ(est.look(l, 0, r, 0, 4096, 4096).verdict,
            SeqVerdict::kUndecided);
}

// ----------------------------------------------------------------- waves

TEST(SeqEstWaves, AutoTuneTargetsDrawsPerWavePerChunk) {
  ThreadPool pool(1);
  TraceInsight f;
  ParallelSampler sampler(mac_side_factory("se_w1", true),
                          uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  // One chunk of 100 trials: auto-tune picks max(1, 2048/100) = 20.
  IncrementalFdistRun small(sampler, f, 100, 7, kDepth, pool);
  EXPECT_EQ(small.rounds_per_wave(), 20u);
  // One chunk of >= 2048 trials: one round per wave.
  IncrementalFdistRun big(sampler, f, 4096, 7, kDepth, pool);
  EXPECT_EQ(big.rounds_per_wave(), 1u);
  // Explicit values pass through untouched.
  IncrementalFdistRun fixed(sampler, f, 100, 7, kDepth, pool, 3);
  EXPECT_EQ(fixed.rounds_per_wave(), 3u);
  // The surfaced report carries the effective value.
  while (!small.done()) {
    EXPECT_EQ(small.step_wave().rounds_per_wave, 20u);
  }
}

TEST(SeqEstWaves, DeltaMergeWorkIsBoundedByDistinctExecutions) {
  ThreadPool pool(4);
  TraceInsight f;
  ParallelSampler sampler(composed_factory(3, "se_c"),
                          uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  IncrementalFdistRun run(sampler, f, kTrials, 11, kDepth, pool, 1);
  std::size_t merged_total = 0;
  std::size_t waves = 0;
  Disc<Perception, double> tally;
  while (!run.done()) {
    merged_total += run.step_wave().merge_entries;
    tally.merge(run.wave_delta());
    ++waves;
  }
  EXPECT_GT(waves, 1u);
  EXPECT_GT(merged_total, 0u);
  // Every merged entry is a terminal class discovered exactly once.
  EXPECT_LE(merged_total, run.batch_stats().distinct_executions);
  // The caller's running tally accounts for every trial.
  double total = 0.0;
  for (const auto& [perc, c] : tally.entries()) total += c;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kTrials));
}

TEST(SeqEstWaves, CompletedRunIsBitIdenticalToOneShot) {
  ThreadPool pool(4);
  TraceInsight f;
  ParallelSampler sampler(mac_side_factory("se_w2", true),
                          uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  const auto one_shot =
      sampler.sample_fdist(f, kTrials, 9, kDepth, pool, SamplingMode::kBatched);
  IncrementalFdistRun run(sampler, f, kTrials, 9, kDepth, pool, 1);
  const auto inc = testing::drive_waves(run);
  ASSERT_EQ(inc.entries().size(), one_shot.entries().size());
  for (std::size_t i = 0; i < inc.entries().size(); ++i) {
    EXPECT_EQ(inc.entries()[i].first, one_shot.entries()[i].first);
    EXPECT_EQ(inc.entries()[i].second, one_shot.entries()[i].second);
  }
}

TEST(SeqEstWaves, EarlyStopReturnsNormalizedPartial) {
  ThreadPool pool(2);
  TraceInsight f;
  ParallelSampler sampler(ledger_factory("se_l"), uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  IncrementalFdistRun run(sampler, f, kTrials, 13, kDepth, pool, 1);
  std::size_t waves_seen = 0;
  const auto partial = testing::drive_waves(
      run, [&](const IncrementalFdistRun::WaveReport& rep,
               const Disc<Perception, double>& fdist) {
        ++waves_seen;
        if (rep.trials_done == 0) return true;
        double mass = 0.0;
        for (const auto& [perc, p] : fdist.entries()) mass += p;
        EXPECT_NEAR(mass, 1.0, 1e-9);
        return false;  // stop at the first wave with terminal trials
      });
  EXPECT_GT(waves_seen, 0u);
  double mass = 0.0;
  for (const auto& [perc, p] : partial.entries()) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(SeqEstWaves, SerialModeRejected) {
  // The sequential estimator steps incremental batched waves; kSerial has
  // no round structure, so the request is rejected up front.
  ThreadPool pool(1);
  TraceInsight f;
  EXPECT_THROW(sequential_balance_epsilon(
                   ledger_factory("se_l"), uniform_factory(kDepth),
                   ledger_factory("se_l"), uniform_factory(kDepth), f,
                   SequentialPolicy::fixed(100), 1, kDepth, pool,
                   SamplingMode::kSerial),
               std::invalid_argument);
}

// -------------------------------------------------------------- coverage
// Simulation-based calibration of the confidence sequence itself, on
// synthetic Bernoulli tallies (no automata): with the true epsilon
// sitting exactly ON the threshold, ANY verdict requires the confidence
// sequence to exclude the truth, so the realized decision rate across
// replicates must stay under delta (plus binomial slack on the
// replicate count). All draws are seeded: a given build either passes
// always or fails always.

struct SyntheticDecision {
  SeqVerdict verdict = SeqVerdict::kUndecided;
};

SyntheticDecision simulate_decision(double p_l, double p_r, double threshold,
                                    double delta, std::size_t budget,
                                    std::uint64_t seed) {
  SequentialPolicy policy = SequentialPolicy::deciding(threshold, budget,
                                                       delta);
  SeqEstimator est(policy);
  Xoshiro256 rng = Xoshiro256::for_stream(seed, 77);
  std::size_t n = 0;
  std::size_t a_l = 0;
  std::size_t a_r = 0;
  std::size_t stage = 512;
  while (n < budget) {
    const std::size_t take = std::min(stage, budget - n);
    for (std::size_t t = 0; t < take; ++t) {
      if (rng.uniform() < p_l) ++a_l;
      if (rng.uniform() < p_r) ++a_r;
    }
    n += take;
    stage *= 2;
    Disc<Perception, double> l, r;
    l.add("a", static_cast<double>(a_l));
    l.add("b", static_cast<double>(n - a_l));
    r.add("a", static_cast<double>(a_r));
    r.add("b", static_cast<double>(n - a_r));
    const SeqDecision d = est.look(l, 0, r, 0, n, 2 * n);
    if (d.verdict != SeqVerdict::kUndecided) return {d.verdict};
  }
  return {};
}

TEST(SeqEstCoverage, FalseDecisionRateStaysUnderDelta) {
  // eps_true = |0.5 - 0.3| = 0.2 == threshold: every decision is false.
  const double delta = 0.05;
  const std::size_t kReplicates = 400;
  std::size_t decided = 0;
  for (std::uint64_t r = 0; r < kReplicates; ++r) {
    const SyntheticDecision d =
        simulate_decision(0.5, 0.3, 0.2, delta, 16384, 9000 + r);
    if (d.verdict != SeqVerdict::kUndecided) ++decided;
  }
  // Budget: delta * R expected worst case, plus ~3 sigma of binomial
  // noise on the replicate count. In practice the bound is conservative
  // and `decided` sits near zero; this guards gross miscalibration.
  const double slack =
      3.0 * std::sqrt(kReplicates * delta * (1.0 - delta));
  EXPECT_LE(static_cast<double>(decided), kReplicates * delta + slack);
}

TEST(SeqEstCoverage, PowerAtClearMargins) {
  // eps_true = 0.3 against threshold 0.1: nearly every replicate should
  // decide above, and below-decisions (false) stay under delta.
  const double delta = 0.05;
  const std::size_t kReplicates = 100;
  std::size_t above = 0;
  std::size_t below = 0;
  for (std::uint64_t r = 0; r < kReplicates; ++r) {
    const SyntheticDecision d =
        simulate_decision(0.6, 0.3, 0.1, delta, 16384, 41000 + r);
    if (d.verdict == SeqVerdict::kAboveThreshold) ++above;
    if (d.verdict == SeqVerdict::kBelowThreshold) ++below;
  }
  EXPECT_GE(above, 90u);
  const double slack =
      3.0 * std::sqrt(kReplicates * delta * (1.0 - delta));
  EXPECT_LE(static_cast<double>(below), kReplicates * delta + slack);
}

// ------------------------------------------------------------------- zoo

TEST(SeqEstZoo, SelfPairsDecideBelowEarlyAtEveryWorkerCount) {
  const SequentialPolicy policy =
      SequentialPolicy::deciding(0.2, kTrials, 1e-3);
  for (const Stack& stack : stack_zoo()) {
    for (std::size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      const SequentialEpsilon se = sequential_balance_epsilon(
          stack.make, uniform_factory(kDepth), stack.make,
          uniform_factory(kDepth), *stack.insight, policy, 17, kDepth,
          pool);
      // Exact eps is 0 (same factory both sides), far below 0.2.
      EXPECT_EQ(se.verdict, SeqVerdict::kBelowThreshold)
          << stack.label << " @" << workers;
      EXPECT_LT(se.trials, kTrials) << stack.label << " @" << workers;
      EXPECT_LT(se.estimate, 0.1) << stack.label << " @" << workers;
      EXPECT_GT(se.looks, 0u);
      EXPECT_GT(se.draws, 0u);
    }
  }
}

TEST(SeqEstZoo, MacVerdictsAgreeWithExactEpsilonBothSides) {
  // Exact eps(real, ideal) under the forgery word is 2^-4 = 0.0625.
  const std::string tag = "se_zm";
  TraceInsight f;
  const std::size_t depth = 12;
  {
    auto lhs = mac_side_factory(tag, true)();
    auto rhs = mac_side_factory(tag, false)();
    const SchedulerPtr sl = mac_word_factory(tag)();
    const SchedulerPtr sr = mac_word_factory(tag)();
    EXPECT_EQ(exact_balance_epsilon(*lhs, *sl, *rhs, *sr, f, depth),
              Rational(1, 16));
  }
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const SequentialEpsilon above = sequential_balance_epsilon(
        mac_side_factory(tag, true), mac_word_factory(tag),
        mac_side_factory(tag, false), mac_word_factory(tag), f,
        SequentialPolicy::deciding(0.03, 1u << 16, 1e-3), 23, depth, pool);
    EXPECT_EQ(above.verdict, SeqVerdict::kAboveThreshold) << workers;
    EXPECT_NEAR(above.estimate, 0.0625, 0.03) << workers;
    const SequentialEpsilon below = sequential_balance_epsilon(
        mac_side_factory(tag, true), mac_word_factory(tag),
        mac_side_factory(tag, false), mac_word_factory(tag), f,
        SequentialPolicy::deciding(0.2, 1u << 16, 1e-3), 23, depth, pool);
    EXPECT_EQ(below.verdict, SeqVerdict::kBelowThreshold) << workers;
    EXPECT_LT(below.trials, std::size_t{1} << 16) << workers;
  }
}

TEST(SeqEstZoo, SequentialRunsAreDeterministicAtFixedPoolSize) {
  TraceInsight f;
  ThreadPool pool(4);
  const SequentialPolicy policy =
      SequentialPolicy::deciding(0.1, kTrials, 1e-3);
  auto run = [&] {
    return sequential_balance_epsilon(
        composed_factory(3, "se_c"), uniform_factory(kDepth),
        hidden_renamed_factory(5, "se_h"), uniform_factory(kDepth), f,
        policy, 31, kDepth, pool);
  };
  const SequentialEpsilon a = run();
  const SequentialEpsilon b = run();
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.draws, b.draws);
  EXPECT_EQ(a.looks, b.looks);
}

TEST(SeqEstZoo, FixedPolicyRunsWholeBudget) {
  TraceInsight f;
  ThreadPool pool(2);
  const SequentialEpsilon se = sequential_balance_epsilon(
      ledger_factory("se_l"), uniform_factory(kDepth), ledger_factory("se_l"),
      uniform_factory(kDepth), f, SequentialPolicy::fixed(4096), 5, kDepth,
      pool);
  EXPECT_EQ(se.trials, 4096u);
  EXPECT_EQ(se.looks, 0u);
  // Fixed policies still report a point verdict against the threshold
  // (0 here, so any positive sampling noise lands above).
  EXPECT_NE(se.verdict, SeqVerdict::kUndecided);
}

// ----------------------------------------------------------------- split

TEST(SeqEstSplit, StrataMassesAreExactlyComplete) {
  auto aut = mac_side_factory("se_s1", true)();
  const SchedulerPtr sched = mac_word_factory("se_s1")();
  TraceInsight f;
  const PrefixStrata strata = expand_prefix_strata(*aut, *sched, f, 2);
  Rational settled_mass;
  for (const auto& [perc, p] : strata.settled.entries()) settled_mass += p;
  EXPECT_EQ(settled_mass + strata.live_mass, Rational(1));
  EXPECT_FALSE(strata.live.empty());
  for (const PrefixStratum& s : strata.live) {
    EXPECT_EQ(s.frag.length(), 2u);
    EXPECT_FALSE(s.prob.is_zero());
  }
  // split_depth == 0: one root stratum carrying all the mass.
  const PrefixStrata root = expand_prefix_strata(*aut, *sched, f, 0);
  ASSERT_EQ(root.live.size(), 1u);
  EXPECT_EQ(root.live[0].prob, Rational(1));
  EXPECT_TRUE(root.settled.entries().empty());
}

TEST(SeqEstSplit, ConditionalSamplersMatchExactConditionals) {
  // Per-stratum GOF: each prefix-conditioned cursor must sample the
  // exact conditional law of its stratum.
  TraceInsight f;
  ThreadPool pool(4);
  ParallelSampler sampler(composed_factory(3, "se_c"),
                          uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  auto view = sampler.worker_view();
  const SchedulerPtr sched = sampler.worker_scheduler();
  const PrefixStrata strata = expand_prefix_strata(*view, *sched, f, 2);
  ASSERT_FALSE(strata.live.empty());
  const std::size_t kPerStratum = 8000;
  const std::vector<std::size_t> alloc(strata.live.size(), kPerStratum);
  const auto counts = stratified_sample_counts(sampler, f, strata, alloc, 43,
                                               kDepth, pool);
  ASSERT_EQ(counts.size(), strata.live.size());
  for (std::size_t i = 0; i < strata.live.size(); ++i) {
    // Exact conditional f-dist of stratum i: enumerate its subtree with
    // prefix probability 1 (the cone sums to 1, so no renormalization).
    ExactDisc<Perception> exact_cond;
    ExecFragment path = strata.live[i].frag;
    enumerate_cone(*view, *sched, kDepth, path, Rational(1),
                   [&](const ExecFragment& alpha, const Rational& p) {
                     exact_cond.add(f.apply(*view, alpha), p);
                   });
    Disc<Perception, double> sampled;
    for (const auto& [perc, c] : counts[i].entries()) {
      sampled.add(perc, c / static_cast<double>(kPerStratum));
    }
    EXPECT_TRUE(cdse::testing::fdist_matches_exact(exact_cond, sampled,
                                                   kPerStratum))
        << "stratum " << i;
  }
}

TEST(SeqEstSplit, StratifiedFdistIsUnbiasedAtProportionalAllocation) {
  // The headline unbiasedness gate: proportional allocation (boost = 0)
  // keeps the stratified estimator's variance at or below multinomial
  // sampling, so the chi-square GOF against the exact full-depth f-dist
  // is a conservative rejection test at kStatAlpha.
  TraceInsight f;
  ThreadPool pool(4);
  ParallelSampler sampler(mac_side_factory("se_s2", true),
                          uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  auto view = sampler.worker_view();
  const SchedulerPtr sched = sampler.worker_scheduler();
  const PrefixStrata strata = expand_prefix_strata(*view, *sched, f, 2);
  ASSERT_FALSE(strata.live.empty());
  const std::size_t kTotal = 40000;
  std::vector<std::size_t> alloc(strata.live.size());
  std::vector<std::uint64_t> n(strata.live.size());
  for (std::size_t i = 0; i < strata.live.size(); ++i) {
    const double share = strata.live[i].prob.to_double();
    alloc[i] = std::max<std::size_t>(
        1, static_cast<std::size_t>(share * kTotal + 0.5));
    n[i] = alloc[i];
  }
  const auto counts = stratified_sample_counts(sampler, f, strata, alloc, 47,
                                               kDepth, pool);
  const Disc<Perception, double> reweighted =
      stratified_fdist(strata, counts, n);
  double mass = 0.0;
  for (const auto& [perc, p] : reweighted.entries()) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);
  auto truth_aut = mac_side_factory("se_s2", true)();
  const SchedulerPtr truth_sched = uniform_factory(kDepth)();
  const ExactDisc<Perception> exact =
      exact_fdist(*truth_aut, *truth_sched, f, kDepth);
  EXPECT_TRUE(
      cdse::testing::fdist_matches_exact(exact, reweighted, kTotal));
}

TEST(SeqEstSplit, StratifiedTalliesAreWorkerCountIndependent) {
  TraceInsight f;
  ParallelSampler sampler(composed_factory(3, "se_c"),
                          uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  auto view = sampler.worker_view();
  const SchedulerPtr sched = sampler.worker_scheduler();
  const PrefixStrata strata = expand_prefix_strata(*view, *sched, f, 2);
  const std::vector<std::size_t> alloc(strata.live.size(), 2000);
  std::vector<std::vector<Disc<Perception, double>>> runs;
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    runs.push_back(stratified_sample_counts(sampler, f, strata, alloc, 51,
                                            kDepth, pool));
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    ASSERT_EQ(runs[w].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_EQ(runs[w][i].entries().size(), runs[0][i].entries().size());
      for (std::size_t e = 0; e < runs[0][i].entries().size(); ++e) {
        EXPECT_EQ(runs[w][i].entries()[e].first,
                  runs[0][i].entries()[e].first);
        EXPECT_DOUBLE_EQ(runs[w][i].entries()[e].second,
                         runs[0][i].entries()[e].second);
      }
    }
  }
}

TEST(SeqEstSplit, SplitEpsilonAgreesWithPlainAndExact) {
  const std::string tag = "se_s3";
  TraceInsight f;
  ThreadPool pool(4);
  const std::size_t depth = 12;
  SequentialPolicy split = SequentialPolicy::deciding(0.03, 1u << 16, 1e-3);
  split.split_depth = 2;
  const SequentialEpsilon se = sequential_balance_epsilon(
      mac_side_factory(tag, true), mac_word_factory(tag),
      mac_side_factory(tag, false), mac_word_factory(tag), f, split, 61,
      depth, pool);
  EXPECT_GT(se.strata, 0u);
  EXPECT_EQ(se.verdict, SeqVerdict::kAboveThreshold);
  EXPECT_NEAR(se.estimate, 0.0625, 0.03);
  // Fixed-budget split run: the point estimate should sit close to the
  // exact epsilon (tighter than the sampling noise of the plain path,
  // since the word mass is handled exactly by the strata weights).
  SequentialPolicy split_fixed = SequentialPolicy::fixed(1u << 14);
  split_fixed.split_depth = 2;
  split_fixed.threshold = 0.03;
  const SequentialEpsilon fixed = sequential_balance_epsilon(
      mac_side_factory(tag, true), mac_word_factory(tag),
      mac_side_factory(tag, false), mac_word_factory(tag), f, split_fixed,
      61, depth, pool);
  EXPECT_NEAR(fixed.estimate, 0.0625, 0.02);
  EXPECT_EQ(fixed.verdict, SeqVerdict::kAboveThreshold);
}

TEST(SeqEstSplit, SplitRunNeverCommitsMoreThanTheBudget) {
  // Two random composed stacks at split depth 2 have hundreds of live
  // strata; the per-stratum floor must come out of each stage, so a
  // fixed budget is spent exactly and a sequential one never exceeded.
  TraceInsight f;
  ThreadPool pool(4);
  SequentialPolicy fixed = SequentialPolicy::fixed(4096);
  fixed.split_depth = 2;
  const SequentialEpsilon se = sequential_balance_epsilon(
      composed_factory(3, "se_c"), uniform_factory(kDepth),
      composed_factory(4, "se_c4"), uniform_factory(kDepth), f, fixed, 19,
      kDepth, pool);
  EXPECT_GT(se.strata, 64u);
  EXPECT_LE(se.trials, 4096u);
  EXPECT_EQ(se.trials, 4096u);  // fixed-trial mode runs the whole budget
  SequentialPolicy seq = SequentialPolicy::deciding(0.5, 3000, 1e-3);
  seq.split_depth = 2;
  seq.initial_trials = 16;  // below the stratum count: grown to it
  const SequentialEpsilon sq = sequential_balance_epsilon(
      composed_factory(3, "se_c"), uniform_factory(kDepth),
      composed_factory(4, "se_c4"), uniform_factory(kDepth), f, seq, 19,
      kDepth, pool);
  EXPECT_GT(sq.stages, 0u);
  EXPECT_LE(sq.trials, 3000u);
}

TEST(SeqEstSplit, BudgetBelowStratumCountIsRejected) {
  TraceInsight f;
  ThreadPool pool(2);
  SequentialPolicy policy = SequentialPolicy::fixed(8);
  policy.split_depth = 2;
  EXPECT_THROW(sequential_balance_epsilon(
                   composed_factory(3, "se_c"), uniform_factory(kDepth),
                   composed_factory(4, "se_c4"), uniform_factory(kDepth), f,
                   policy, 19, kDepth, pool),
               std::invalid_argument);
}

// ------------------------------------------------------------------ impl

TEST(SeqEstImpl, SampledImplementationGridAgreesWithFixedAtLowerCost) {
  const std::string tag = "se_i1";
  TraceInsight f;
  ThreadPool pool(4);
  const std::size_t depth = 12;
  const RealIdealPair mac = make_otmac_pair(4, tag);
  const PsioaFactory a = [mac]() { return mac.real.ptr(); };
  const PsioaFactory b = [mac]() { return mac.ideal.ptr(); };
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
      {"word", mac_word_factory(tag)}};
  // NOTE the env factory above carries the adversary too, so composing
  // env.make() with a() yields (env || adv) || mac -- same closed system
  // as the zoo stack up to composition order, which epsilon ignores.
  const auto seq = check_implementation_sampled(
      a, b, envs, schedulers, same_scheduler(), f, depth, pool,
      SequentialPolicy::deciding(0.03, 1u << 16, 1e-3), 71);
  ASSERT_EQ(seq.rows.size(), 1u);
  EXPECT_EQ(seq.rows[0].verdict, SeqVerdict::kAboveThreshold);
  EXPECT_FALSE(seq.all_below);
  EXPECT_GT(seq.total_draws, 0u);
  const auto fixed = check_implementation_sampled(
      a, b, envs, schedulers, same_scheduler(), f, depth, pool,
      SequentialPolicy::fixed(1u << 16), 71);
  ASSERT_EQ(fixed.rows.size(), 1u);
  // Same side of the threshold (fixed policies default threshold 0;
  // compare the estimates directly instead).
  EXPECT_NEAR(fixed.rows[0].eps, seq.rows[0].eps, 0.05);
  // The E22 floor: the sequential grid costs at most half the draws.
  EXPECT_GE(fixed.total_draws, 2 * seq.total_draws);
  // A threshold safely above eps turns every cell below.
  const auto below = check_implementation_sampled(
      a, b, envs, schedulers, same_scheduler(), f, depth, pool,
      SequentialPolicy::deciding(0.2, 1u << 16, 1e-3), 71);
  EXPECT_TRUE(below.all_below);
}

PsioaFamily mac_side_family(const std::string& base, bool real) {
  return PsioaFamily{
      base + (real ? "_real" : "_ideal"),
      [base, real](std::uint32_t k) -> PsioaPtr {
        const std::string tag = base + std::to_string(k);
        const RealIdealPair pair = make_otmac_pair(k, tag);
        auto env = make_probe_env_matching(
            "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
            act("forged_" + tag), act("acc_" + tag));
        auto adv =
            make_sink_adversary(tag + "_adv", {}, acts({"forge_" + tag}));
        const StructuredPsioa& side = real ? pair.real : pair.ideal;
        return compose(env, compose(side.ptr(), adv));
      }};
}

SchedulerFamily mac_word_family(const std::string& base) {
  return SchedulerFamily{
      "word", [base](std::uint32_t k) -> SchedulerPtr {
        const std::string tag = base + std::to_string(k);
        return std::make_shared<SequenceScheduler>(
            std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                                  act("forged_" + tag), act("acc_" + tag)},
            /*local_only=*/true);
      }};
}

TEST(SeqEstImpl, FamilySweepSequentialCellsMatchExactSides) {
  // ks 3 and 5 sample sequentially against threshold 0.08: exact eps is
  // 0.125 (above) and 0.03125 (below). Exact cells are untouched. (k=4
  // would put the below cell at 0.0625 -- a 0.0175 margin the sound
  // missing-mass-aware upper envelope cannot close within the budget.)
  const std::string base = "se_i2";
  ThreadPool pool(4);
  const std::vector<std::uint32_t> ks{1, 2, 3, 5};
  const SequentialPolicy seq =
      SequentialPolicy::deciding(0.08, 1u << 16, 1e-3);
  const FamilySweepReport report = family_epsilon_sweep(
      mac_side_family(base, true), mac_side_family(base, false),
      mac_word_family(base), TraceInsight(), ks, 12,
      /*exact_upto=*/2, /*seed=*/3, pool, {}, seq);
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_TRUE(report.rows[0].exact.has_value());
  EXPECT_TRUE(report.rows[1].exact.has_value());
  EXPECT_EQ(report.rows[0].verdict, SeqVerdict::kUndecided);
  ASSERT_FALSE(report.rows[2].exact.has_value());
  ASSERT_FALSE(report.rows[3].exact.has_value());
  EXPECT_EQ(report.rows[2].verdict, SeqVerdict::kAboveThreshold);
  EXPECT_EQ(report.rows[3].verdict, SeqVerdict::kBelowThreshold);
  EXPECT_GT(report.rows[2].draws, 0u);
  EXPECT_LT(report.rows[2].trials_used, std::size_t{1} << 16);
  EXPECT_LT(report.rows[3].trials_used, std::size_t{1} << 16);
  EXPECT_EQ(report.total_draws, report.rows[2].draws + report.rows[3].draws);
  // Fixed-trial reference: same sides, at least 2x the draws.
  const FamilySweepReport fixed = family_epsilon_sweep(
      mac_side_family(base, true), mac_side_family(base, false),
      mac_word_family(base), TraceInsight(), ks, 12,
      /*exact_upto=*/2, /*seed=*/3, pool, {},
      SequentialPolicy::fixed(1u << 16));
  EXPECT_GT(fixed.rows[2].sampled, 0.08);
  EXPECT_LT(fixed.rows[3].sampled, 0.08);
  EXPECT_GE(fixed.total_draws, 2 * report.total_draws);
}

// ------------------------------------------------------ policy validation

TEST(SeqEstWaves, MalformedPolicyRejectedBeforeWork) {
  // A malformed policy is a typed error before any automaton is built: a
  // NaN threshold would read every estimate as "below", a NaN delta would
  // silently run fixed-trial, and a NaN, negative, sub-unit or infinite
  // growth would feed an undefined float-to-integer stage cast.
  const std::string tag = "se_bad";
  const std::size_t depth = 12;
  TraceInsight f;
  ThreadPool pool(2);
  std::size_t built = 0;
  const auto counted = [&built](const PsioaFactory& fa) -> PsioaFactory {
    return [&built, fa] {
      ++built;
      return fa();
    };
  };
  const auto run = [&](const SequentialPolicy& policy) {
    return sequential_balance_epsilon(
        counted(mac_side_factory(tag, true)), mac_word_factory(tag),
        counted(mac_side_factory(tag, false)), mac_word_factory(tag), f,
        policy, 7, depth, pool);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SequentialPolicy> bad;
  SequentialPolicy nan_threshold = SequentialPolicy::fixed(16384);
  nan_threshold.threshold = nan;
  bad.push_back(nan_threshold);
  for (double growth : {nan, -2.0, 0.5, inf}) {
    SequentialPolicy p = SequentialPolicy::deciding(0.03, 16384);
    p.growth = growth;
    bad.push_back(p);
  }
  for (double delta : {nan, 1.0, 1.5}) {
    SequentialPolicy p = SequentialPolicy::deciding(0.03, 16384);
    p.delta = delta;
    bad.push_back(p);
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(run(bad[i]), std::invalid_argument) << "case " << i;
  }
  EXPECT_EQ(built, 0u);

  // The family sweep rejects the policy before its exact cells run.
  std::size_t family_built = 0;
  PsioaFamily lhs = mac_side_family("se_bad_f", true);
  lhs.make = [&family_built, make = lhs.make](std::uint32_t k) {
    ++family_built;
    return make(k);
  };
  EXPECT_THROW(family_epsilon_sweep(lhs, mac_side_family("se_bad_f", false),
                                    mac_word_family("se_bad_f"), f, {1, 2, 3},
                                    depth, /*exact_upto=*/2, /*seed=*/3, pool,
                                    {}, bad[1]),
               std::invalid_argument);
  EXPECT_EQ(family_built, 0u);

  // A huge finite growth is valid: the stage after the first clamps to
  // the budget. With the threshold at the exact epsilon (1/16) no verdict
  // fires, so the run spends the whole budget in exactly two stages.
  SequentialPolicy huge = SequentialPolicy::deciding(1.0 / 16.0, 16384);
  huge.growth = 1e300;
  const SequentialEpsilon se = run(huge);
  EXPECT_EQ(se.verdict, SeqVerdict::kUndecided);
  EXPECT_EQ(se.stages, 2u);
  EXPECT_EQ(se.trials, 16384u);
}

}  // namespace
}  // namespace cdse
