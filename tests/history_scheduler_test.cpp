// History-reading schedulers through the batched engine.
//
// A scheduler that is not a MarkovScheduler may read the whole history,
// so the batched sampler asks it once per trajectory class with the
// class's real fragment (sched/batch_sampler.hpp). Every sampled path
// must then sample the law the scheduler defines: one-shot f-dists over
// one instance and over a frozen snapshot, prefix-conditioned strata,
// sequential epsilon (plain and split, deciding and fixed), the sampled
// implementation grid and the family sweep.
//
// The probe is the paper's oblivious schema (Section 4.4): "fire pa until
// the action word contains it" halts after one step. Fed any word but the
// real one, it keeps firing to the depth cap, and the exact epsilon 0
// against UniformScheduler(1) on a one-state pa loop becomes 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/faulty.hpp"
#include "impl/balance.hpp"
#include "impl/family_sweep.hpp"
#include "impl/implementation.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/explicit_psioa.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/cone_measure.hpp"
#include "sched/exact_engine.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "stat_util.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

constexpr std::size_t kDepth = 6;

/// One state whose output pa loops back to it.
PsioaPtr make_pa_loop(const std::string& tag) {
  auto a = std::make_shared<ExplicitPsioa>("loop_" + tag);
  const ActionId pa = act("pa_" + tag);
  const State q = a->add_state("q");
  a->set_start(q);
  Signature sig;
  sig.out = {pa};
  a->set_signature(q, sig);
  a->add_step(q, pa, q);
  return a;
}

/// pa once, into a state with nothing enabled.
PsioaPtr make_pa_once(const std::string& tag) {
  auto a = std::make_shared<ExplicitPsioa>("once_" + tag);
  const ActionId pa = act("pa_" + tag);
  const State q0 = a->add_state("q0");
  const State q1 = a->add_state("q1");
  a->set_start(q0);
  Signature sig;
  sig.out = {pa};
  a->set_signature(q0, sig);
  a->set_signature(q1, Signature{});
  a->add_step(q0, pa, q1);
  return a;
}

/// An environment with no actions, for the implementation grid.
PsioaPtr make_idle_env(const std::string& tag) {
  auto e = std::make_shared<ExplicitPsioa>("idle_" + tag);
  const State q = e->add_state("q");
  e->set_start(q);
  e->set_signature(q, Signature{});
  return e;
}

/// The oblivious probe: pa while it is enabled and the action word does
/// not contain it yet.
SchedulerPtr fire_pa_once(const std::string& tag) {
  const ActionId pa = act("pa_" + tag);
  return std::make_shared<ObliviousFnScheduler>(
      [pa](const std::vector<ActionId>& word, const ActionSet& enabled) {
        ActionChoice c;
        if (set::contains(enabled, pa) &&
            std::find(word.begin(), word.end(), pa) == word.end()) {
          c.add(pa, Rational(1));
        }
        return c;
      },
      "pa-once");
}

/// Uniform over the enabled actions other than the one just fired,
/// halting at `depth`: a history-reading law on systems that can repeat
/// an action.
SchedulerPtr no_repeat(std::size_t depth) {
  return std::make_shared<ObliviousFnScheduler>(
      [depth](const std::vector<ActionId>& word, const ActionSet& enabled) {
        ActionChoice c;
        if (word.size() >= depth) return c;
        std::vector<ActionId> pick;
        for (ActionId a : enabled) {
          if (word.empty() || a != word.back()) pick.push_back(a);
        }
        for (ActionId a : pick) {
          c.add(a, Rational(1, static_cast<std::int64_t>(pick.size())));
        }
        return c;
      },
      "no-repeat");
}

/// Uniform over every enabled action below `depth`, as an oblivious
/// function of the word: UniformScheduler(depth)'s law without its type.
SchedulerPtr oblivious_uniform(std::size_t depth) {
  return std::make_shared<ObliviousFnScheduler>(
      [depth](const std::vector<ActionId>& word, const ActionSet& enabled) {
        ActionChoice c;
        if (word.size() >= depth) return c;
        for (ActionId a : enabled) {
          c.add(a, Rational(1, static_cast<std::int64_t>(enabled.size())));
        }
        return c;
      },
      "oblivious-uniform");
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

PsioaFactory ledger_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr { return make_ledger_system(2, tag).dynamic; };
}

ParallelSampler prepared(const PsioaFactory& fa, const SchedulerFactory& fs) {
  ParallelSampler sampler(fa, fs);
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  return sampler;
}

// ------------------------------------------------------------ the probe

TEST(HistoryScheduler, ProbeLawIsOneStep) {
  // Exact and sampled agree: pa once, then halt.
  const std::string tag = "hs_p";
  TraceInsight f;
  PsioaPtr loop = make_pa_loop(tag);
  const SchedulerPtr sigma = fire_pa_once(tag);
  const auto exact = exact_fdist(*loop, *sigma, f, kDepth);
  ASSERT_EQ(exact.entries().size(), 1u);
  EXPECT_EQ(exact.entries()[0].second, Rational(1));
  UniformScheduler one(1);
  EXPECT_EQ(exact_balance_epsilon(*loop, *sigma, *loop, one, f, kDepth),
            Rational(0));
  const auto sampled =
      sample_fdist_batched(*loop, *sigma, f, 1000, 3, kDepth);
  ASSERT_EQ(sampled.entries().size(), 1u);
  EXPECT_EQ(sampled.entries()[0].first, exact.entries()[0].first);
  EXPECT_EQ(sampled.entries()[0].second, 1.0);
}

/// sequential_balance_epsilon on the probe against UniformScheduler(1),
/// whose exact epsilon is 0.
SequentialEpsilon probe_epsilon(SequentialPolicy policy,
                                std::size_t split_depth,
                                const std::string& tag) {
  policy.split_depth = split_depth;
  ThreadPool pool(2);
  TraceInsight f;
  return sequential_balance_epsilon(
      [tag] { return make_pa_loop(tag); }, [tag] { return fire_pa_once(tag); },
      [tag] { return make_pa_loop(tag); },
      []() -> SchedulerPtr { return std::make_shared<UniformScheduler>(1); },
      f, policy, 17, kDepth, pool);
}

TEST(HistoryScheduler, SequentialDecidingVerdictIsBelow) {
  for (std::size_t split_depth : {0, 1}) {
    const SequentialEpsilon se = probe_epsilon(
        SequentialPolicy::deciding(0.1, std::size_t{1} << 16, 1e-3),
        split_depth, "hs_sd");
    EXPECT_EQ(se.verdict, SeqVerdict::kBelowThreshold)
        << "split_depth " << split_depth;
    EXPECT_EQ(se.estimate, 0.0) << "split_depth " << split_depth;
  }
}

TEST(HistoryScheduler, SequentialFixedVerdictIsBelow) {
  for (std::size_t split_depth : {0, 1}) {
    SequentialPolicy fixed = SequentialPolicy::fixed(4096);
    fixed.threshold = 0.1;
    const SequentialEpsilon se =
        probe_epsilon(fixed, split_depth, "hs_sf");
    EXPECT_EQ(se.verdict, SeqVerdict::kBelowThreshold)
        << "split_depth " << split_depth;
    EXPECT_EQ(se.estimate, 0.0) << "split_depth " << split_depth;
  }
}

TEST(HistoryScheduler, SampledImplementationGridIsBelow) {
  // The pa loop implements the one-shot pa automaton under the probe:
  // both sides fire pa once.
  const std::string tag = "hs_i";
  ThreadPool pool(2);
  TraceInsight f;
  const SampledImplementationReport report = check_implementation_sampled(
      [tag] { return make_pa_loop(tag); }, [tag] { return make_pa_once(tag); },
      {{"idle", [tag] { return make_idle_env(tag); }}},
      {{"pa-once", [tag] { return fire_pa_once(tag); }}}, same_scheduler(),
      f, kDepth, pool,
      SequentialPolicy::deciding(0.1, std::size_t{1} << 16, 1e-3), 23);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].verdict, SeqVerdict::kBelowThreshold);
  EXPECT_EQ(report.rows[0].eps, 0.0);
  EXPECT_TRUE(report.all_below);
}

TEST(HistoryScheduler, FamilySweepSampledCellsAreBelow) {
  const std::string tag = "hs_f";
  const PsioaFamily loop{"loop", [tag](std::uint32_t) {
                           return make_pa_loop(tag);
                         }};
  const PsioaFamily once{"once", [tag](std::uint32_t) {
                           return make_pa_once(tag);
                         }};
  const SchedulerFamily sigma{"pa-once", [tag](std::uint32_t) {
                                return fire_pa_once(tag);
                              }};
  ThreadPool pool(2);
  TraceInsight f;
  const FamilySweepReport report = family_epsilon_sweep(
      loop, once, sigma, f, {1, 2, 3}, kDepth, /*exact_upto=*/1, 29, pool,
      {}, SequentialPolicy::deciding(0.1, std::size_t{1} << 16, 1e-3));
  ASSERT_EQ(report.rows.size(), 3u);
  ASSERT_TRUE(report.rows[0].exact.has_value());
  EXPECT_EQ(*report.rows[0].exact, Rational(0));
  for (std::size_t i = 1; i < report.rows.size(); ++i) {
    EXPECT_FALSE(report.rows[i].exact.has_value());
    EXPECT_EQ(report.rows[i].verdict, SeqVerdict::kBelowThreshold)
        << "k = " << report.rows[i].k;
    EXPECT_EQ(report.rows[i].sampled, 0.0) << "k = " << report.rows[i].k;
  }
}

// ---------------------------------------------------------- chi-square

TEST(HistoryScheduler, OneShotMatchesExact) {
  // No-repeat is a genuinely history-reading law on both stacks; a
  // batched f-dist, over one instance and over a frozen snapshot, must
  // fit the exact one.
  constexpr std::size_t kTrials = 20000;
  TraceInsight f;
  ThreadPool pool(2);
  const std::pair<const char*, PsioaFactory> stacks[] = {
      {"faulty_channel", faulty_channel_factory("hs_fc")},
      {"ledger", ledger_factory("hs_l")},
  };
  for (const auto& [label, make] : stacks) {
    PsioaPtr sys = make();
    const SchedulerPtr exact_sched = no_repeat(kDepth);
    const auto exact = exact_fdist(*sys, *exact_sched, f, kDepth);
    const SchedulerPtr sched = no_repeat(kDepth);
    const auto single =
        sample_fdist_batched(*sys, *sched, f, kTrials, 31, kDepth);
    EXPECT_TRUE(cdse::testing::fdist_matches_exact(exact, single, kTrials))
        << label << ", one instance";
    ParallelSampler sampler =
        prepared(make, [] { return no_repeat(kDepth); });
    const auto snap = sampler.sample_fdist(f, kTrials, 37, kDepth, pool);
    EXPECT_TRUE(cdse::testing::fdist_matches_exact(exact, snap, kTrials))
        << label << ", frozen snapshot";
  }
}

TEST(HistoryScheduler, StratifiedCountsMatchExactConditionals) {
  // Each prefix-conditioned run must sample the exact conditional law of
  // its stratum, which for a history-reading scheduler depends on the
  // prefix itself, not only on its last state and length.
  constexpr std::size_t kPerStratum = 8000;
  TraceInsight f;
  ThreadPool pool(4);
  ParallelSampler sampler = prepared(faulty_channel_factory("hs_st"),
                                     [] { return no_repeat(kDepth); });
  auto view = sampler.worker_view();
  const SchedulerPtr sched = sampler.worker_scheduler();
  const PrefixStrata strata = expand_prefix_strata(*view, *sched, f, 2);
  ASSERT_FALSE(strata.live.empty());
  const std::vector<std::size_t> alloc(strata.live.size(), kPerStratum);
  const auto counts = stratified_sample_counts(sampler, f, strata, alloc, 41,
                                               kDepth, pool);
  ASSERT_EQ(counts.size(), strata.live.size());
  for (std::size_t i = 0; i < strata.live.size(); ++i) {
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

// ------------------------------------------------------- representation

TEST(HistoryScheduler, MarkovRowSharingChangesNoDraw) {
  // The same law with and without the Markov type: a UniformScheduler
  // shares one row per (state, depth) run, its oblivious twin is asked
  // once per class. The rows are equal and split in the same class
  // order, so the estimates are bit-identical; only the lookups differ.
  constexpr std::size_t kTrials = 20000;
  TraceInsight f;
  PsioaPtr sys = ledger_factory("hs_m")();
  UniformScheduler markov(kDepth);
  const SchedulerPtr history = oblivious_uniform(kDepth);
  BatchStats markov_stats, history_stats;
  const auto a =
      sample_fdist_batched(*sys, markov, f, kTrials, 43, kDepth,
                           &markov_stats);
  const auto b =
      sample_fdist_batched(*sys, *history, f, kTrials, 43, kDepth,
                           &history_stats);
  EXPECT_EQ(a, b);
  EXPECT_EQ(markov_stats.split_draws, history_stats.split_draws);
  EXPECT_EQ(markov_stats.distinct_executions,
            history_stats.distinct_executions);
  EXPECT_LT(markov_stats.choice_lookups, history_stats.choice_lookups);
  EXPECT_EQ(history_stats.choice_lookups, history_stats.class_steps);
}

}  // namespace
}  // namespace cdse
