// Iterative / parallel / prefix-sharing exact cone-measure engine
// (sched/exact_engine.hpp): differential + unit + determinism suite.
//
// Layers:
//   order        -- the iterative pending-edge enumerator must replay the
//                   recursive reference visit-for-visit (same fragments,
//                   same probabilities, same pre-order), not just sum to
//                   the same measure.
//   differential -- exact f-dists from the iterative enumerator and from
//                   ParallelConeEngine at 1/2/4/8 workers must equal the
//                   recursive reference bit-for-bit across the same stack
//                   zoo the interning suite pins: random composed,
//                   hidden+renamed, structured MAC, PCA ledger, faulty
//                   channel, crashable, byzantine.
//   frontier     -- ConeFrontierCache: frontier(w).fdist equals a direct
//                   per-word enumeration under SequenceScheduler(w),
//                   max_reached matches the per-word evaluator, prefix
//                   hits fire, eviction works.
//   search       -- search_best_word (prefix-shared), the legacy
//                   recursive search, and search_best_word_parallel at
//                   1/2/4/8 workers return the identical word, epsilon,
//                   and words_evaluated.
//   frames       -- regression guard: the live pending-edge stack scales
//                   with depth x branching, not with cone size.
//   validation   -- Def 3.1 side-condition throws propagate through the
//                   new engines exactly as through the recursive one.
//   grid/sweep   -- check_implementation_parallel and the parallel
//                   family sweep are worker-count independent and match
//                   their serial counterparts row for row.
//
// Suite names all start with "ExactEngine" so scripts/check.sh --tsan
// can select the concurrency-bearing cases by regex.

#include "sched/exact_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/byzantine.hpp"
#include "fault/crash.hpp"
#include "fault/faulty.hpp"
#include "impl/family_sweep.hpp"
#include "impl/implementation.hpp"
#include "impl/optimal.hpp"
#include "protocols/channel.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "secure/emulation.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

constexpr std::size_t kDepth = 4;
const std::size_t kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------------------- stack zoo
// Same shapes as the interning differential suite, under fresh "xe_"
// tags so the two suites' action vocabularies stay disjoint.

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

PsioaFactory crashable_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr { return make_crashable(make_channel(tag), 3); };
}

PsioaFactory byzantine_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    return std::make_shared<ByzantinePsioa>(
        make_channel(tag),
        make_flip_involution({{act("recv0_" + tag), act("recv1_" + tag)}}),
        Rational(1, 3));
  };
}

SchedulerFactory uniform_factory(std::size_t depth) {
  return [depth]() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(depth);
  };
}

ExactDisc<Perception> reference_fdist(const PsioaFactory& fa) {
  PsioaPtr sys = fa();
  UniformScheduler sched(kDepth);
  TraceInsight f;
  return exact_fdist_recursive(*sys, sched, f, kDepth + 1);
}

/// Iterative engine (fresh instance) and ParallelConeEngine at every
/// worker count must reproduce the recursive reference bit-for-bit.
void expect_engines_agree(const PsioaFactory& fa) {
  const ExactDisc<Perception> want = reference_fdist(fa);
  TraceInsight f;

  {
    PsioaPtr sys = fa();
    UniformScheduler sched(kDepth);
    ConeStats stats;
    EXPECT_EQ(exact_fdist(*sys, sched, f, kDepth + 1, &stats), want);
    EXPECT_GT(stats.leaves + stats.halts, 0u);
  }

  ParallelConeEngine engine(fa, uniform_factory(kDepth));
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = kDepth + 1;
  engine.prepare(plan, kDepth + 1);
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    EXPECT_EQ(engine.exact_fdist(f, kDepth + 1, pool), want)
        << "workers=" << workers;
    EXPECT_GT(engine.last_stats().leaves + engine.last_stats().halts, 0u);
  }
}

// ------------------------------------------------------------ visit order

using VisitLog = std::vector<std::pair<ExecFragment, Rational>>;

TEST(ExactEngineOrder, IterativeReplaysRecursivePreOrderExactly) {
  for (int seed = 0; seed < 3; ++seed) {
    const PsioaFactory fa =
        composed_factory(seed, "xe_ord" + std::to_string(seed));
    VisitLog recursive;
    {
      PsioaPtr sys = fa();
      UniformScheduler sched(kDepth);
      for_each_halted_execution_recursive(
          *sys, sched, kDepth + 1,
          [&](const ExecFragment& alpha, const Rational& p) {
            recursive.emplace_back(alpha, p);
          });
    }
    VisitLog iterative;
    {
      PsioaPtr sys = fa();
      UniformScheduler sched(kDepth);
      for_each_halted_execution(
          *sys, sched, kDepth + 1,
          [&](const ExecFragment& alpha, const Rational& p) {
            iterative.emplace_back(alpha, p);
          });
    }
    ASSERT_EQ(recursive.size(), iterative.size()) << "seed " << seed;
    for (std::size_t i = 0; i < recursive.size(); ++i) {
      EXPECT_EQ(recursive[i].first, iterative[i].first)
          << "seed " << seed << " event " << i;
      EXPECT_EQ(recursive[i].second, iterative[i].second)
          << "seed " << seed << " event " << i;
    }
  }
}

TEST(ExactEngineOrder, EnumerateConeRestoresThePathOnExit) {
  const PsioaFactory fa = composed_factory(5, "xe_rest");
  PsioaPtr sys = fa();
  UniformScheduler sched(kDepth);
  TraceInsight f;
  ExecFragment path = ExecFragment::starting_at(sys->start_state());
  const ExecFragment before = path;
  std::size_t events = 0;
  enumerate_cone(*sys, sched, kDepth + 1, path, Rational(1),
                 [&](const ExecFragment&, const Rational&) { ++events; });
  EXPECT_GT(events, 0u);
  EXPECT_EQ(path, before);
}

// ------------------------------------------------------------ differential

class ExactEngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExactEngineDifferential, ComposedStack) {
  const int n = GetParam();
  expect_engines_agree(composed_factory(n, "xe_a" + std::to_string(n)));
}

TEST_P(ExactEngineDifferential, HiddenRenamedStack) {
  const int n = GetParam();
  expect_engines_agree(hidden_renamed_factory(n, "xe_b" + std::to_string(n)));
}

INSTANTIATE_TEST_SUITE_P(Random, ExactEngineDifferential,
                         ::testing::Range(0, 4));

TEST(ExactEngineStacks, StructuredSecureStack) {
  expect_engines_agree(mac_factory("xe_mac"));
}

TEST(ExactEngineStacks, PcaLedgerStack) {
  expect_engines_agree(ledger_factory("xe_led"));
}

TEST(ExactEngineStacks, FaultyChannelStack) {
  expect_engines_agree(faulty_channel_factory("xe_fl"));
}

TEST(ExactEngineStacks, CrashableStack) {
  expect_engines_agree(crashable_factory("xe_cr"));
}

TEST(ExactEngineStacks, ByzantineStack) {
  expect_engines_agree(byzantine_factory("xe_bz"));
}

TEST(ExactEngineParallel, SmallFrontierTargetStillExact) {
  // Force the breadth-first expansion to hand out single-node subtrees
  // (frontier_target = 1 stops expanding immediately) and a huge target
  // (everything enumerated in phase 1, nothing fanned out): both
  // degenerate shapes must still match the reference.
  const PsioaFactory fa = faulty_channel_factory("xe_ft");
  const ExactDisc<Perception> want = reference_fdist(fa);
  TraceInsight f;
  ParallelConeEngine engine(fa, uniform_factory(kDepth));
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = kDepth + 1;
  engine.prepare(plan, kDepth + 1);
  ThreadPool pool(4);
  EXPECT_EQ(engine.exact_fdist(f, kDepth + 1, pool, 1), want);
  EXPECT_EQ(engine.exact_fdist(f, kDepth + 1, pool, 100000), want);
  EXPECT_EQ(engine.last_stats().splits, 0u);
}

// --------------------------------------------------------------- frontier

TEST(ExactEngineFrontier, FdistMatchesDirectPerWordEnumeration) {
  const std::string tag = "xe_fw";
  const PsioaFactory fa = mac_factory(tag);
  const std::size_t depth = 8;
  PsioaPtr cached_sys = fa();
  TraceInsight f;
  ConeFrontierCache cache(*cached_sys, f, depth);

  const std::vector<std::vector<ActionId>> words = {
      {},
      {act("auth_" + tag)},
      {act("auth_" + tag), act("forge_" + tag)},
      {act("auth_" + tag), act("forge_" + tag), act("forged_" + tag)},
      {act("forged_" + tag)},  // stalls: not schedulable at the start
      {act("auth_" + tag), act("auth_" + tag), act("auth_" + tag),
       act("auth_" + tag)},
  };
  for (const auto& word : words) {
    const ConeFrontier& fr = cache.frontier(word);
    PsioaPtr sys = fa();
    SequenceScheduler seq(word, /*local_only=*/false);
    std::size_t max_reached = 0;
    ExactDisc<Perception> want;
    for_each_halted_execution_recursive(
        *sys, seq, depth,
        [&](const ExecFragment& alpha, const Rational& p) {
          want.add(f.apply(*sys, alpha), p);
          max_reached = std::max(max_reached, alpha.length());
        });
    EXPECT_EQ(fr.fdist, want) << "word size " << word.size();
    EXPECT_EQ(fr.max_reached, max_reached) << "word size " << word.size();
    EXPECT_EQ(fr.fdist.total(), Rational(1)) << "word size " << word.size();
  }
}

TEST(ExactEngineFrontier, PrefixLevelsAreSharedNotReenumerated) {
  const std::string tag = "xe_fp";
  PsioaPtr sys = mac_factory(tag)();
  TraceInsight f;
  ConeFrontierCache cache(*sys, f, 8);
  const ActionId auth = act("auth_" + tag);
  const ActionId forge = act("forge_" + tag);

  (void)cache.frontier({auth, forge});
  const ConeStats after_first = cache.stats();
  // Root plus two extension levels, all built fresh (the root is not an
  // extension, so it counts neither as hit nor miss).
  EXPECT_EQ(after_first.prefix_hits, 0u);
  EXPECT_EQ(after_first.prefix_misses, 2u);
  EXPECT_EQ(cache.size(), 3u);

  // Re-asking for the word and asking for a sibling extension both answer
  // the shared prefix from the cache.
  (void)cache.frontier({auth, forge});
  (void)cache.frontier({auth, auth});
  const ConeStats after = cache.stats();
  EXPECT_EQ(after.prefix_hits, 2u);
  EXPECT_EQ(after.prefix_misses, 3u);
  EXPECT_EQ(cache.size(), 4u);

  cache.evict({auth, auth});
  EXPECT_EQ(cache.size(), 3u);
  cache.evict({auth, auth});  // absent: no-op
  EXPECT_EQ(cache.size(), 3u);
}

// ----------------------------------------------------------------- search

TEST(ExactEngineSearch, LegacyPrefixSharedAndParallelAgree) {
  // Factories build everything fresh per call: pool workers each get
  // their own instances, never sharing a memo table.
  const PsioaFactory make_lhs = []() -> PsioaPtr {
    const RealIdealPair pair = make_otmac_pair(2, "xe_s");
    auto adv = make_sink_adversary("xe_s_adv", {}, acts({"forge_xe_s"}));
    return hidden_adversary_composition(pair.real, adv);
  };
  const PsioaFactory make_rhs = []() -> PsioaPtr {
    const RealIdealPair pair = make_otmac_pair(2, "xe_s");
    auto adv = make_sink_adversary("xe_s_adv", {}, acts({"forge_xe_s"}));
    return hidden_adversary_composition(pair.ideal, adv);
  };
  const std::vector<ActionId> alphabet{
      act("auth_xe_s"), act("forge_xe_s"), act("forged_xe_s"),
      act("rejected_xe_s")};
  TraceInsight f;

  PsioaPtr l1 = make_lhs();
  PsioaPtr r1 = make_rhs();
  const BestDistinguisher legacy =
      search_best_word_legacy(*l1, *r1, alphabet, 4, f, 10);
  EXPECT_EQ(legacy.eps, Rational(1, 4));

  PsioaPtr l2 = make_lhs();
  PsioaPtr r2 = make_rhs();
  const BestDistinguisher shared =
      search_best_word(*l2, *r2, alphabet, 4, f, 10);
  EXPECT_EQ(shared.word, legacy.word);
  EXPECT_EQ(shared.eps, legacy.eps);
  EXPECT_EQ(shared.words_evaluated, legacy.words_evaluated);
  // The whole point of the frontier cache: deeper words reuse ancestors.
  EXPECT_GT(shared.stats.prefix_hits, 0u);
  EXPECT_GT(shared.stats.prefix_misses, 0u);

  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const BestDistinguisher par = search_best_word_parallel(
        make_lhs, make_rhs, alphabet, 4, f, 10, pool);
    EXPECT_EQ(par.word, legacy.word) << "workers=" << workers;
    EXPECT_EQ(par.eps, legacy.eps) << "workers=" << workers;
    EXPECT_EQ(par.words_evaluated, legacy.words_evaluated)
        << "workers=" << workers;
  }
}

TEST(ExactEngineSearch, IdenticalSystemsStayZeroThroughAllEngines) {
  const PsioaFactory make_sys = []() -> PsioaPtr {
    const RealIdealPair pair = make_otmac_pair(2, "xe_z");
    auto adv = make_sink_adversary("xe_z_adv", {}, acts({"forge_xe_z"}));
    return hidden_adversary_composition(pair.real, adv);
  };
  const std::vector<ActionId> alphabet{act("auth_xe_z"), act("forge_xe_z"),
                                       act("forged_xe_z")};
  TraceInsight f;
  PsioaPtr a = make_sys();
  PsioaPtr b = make_sys();
  const BestDistinguisher shared = search_best_word(*a, *b, alphabet, 3, f, 8);
  EXPECT_EQ(shared.eps, Rational(0));
  ThreadPool pool(4);
  const BestDistinguisher par =
      search_best_word_parallel(make_sys, make_sys, alphabet, 3, f, 8, pool);
  EXPECT_EQ(par.eps, Rational(0));
  EXPECT_EQ(par.word, shared.word);
  EXPECT_EQ(par.words_evaluated, shared.words_evaluated);
}

// ----------------------------------------------------------------- frames

TEST(ExactEngineFrames, LiveStackScalesWithDepthNotConeSize) {
  const PsioaFactory fa = composed_factory(1, "xe_frm");
  TraceInsight f;
  auto stats_at = [&](std::size_t depth) {
    PsioaPtr sys = fa();
    UniformScheduler sched(depth);
    ConeStats s;
    (void)exact_fdist(*sys, sched, f, depth, &s);
    return s;
  };
  const ConeStats shallow = stats_at(3);
  const ConeStats deep = stats_at(7);
  // The cone itself blows up with depth...
  EXPECT_GT(deep.frames_pushed, 4 * shallow.frames_pushed);
  // ...while the live pending-edge stack only grows ~linearly (depth x
  // per-level branching), far below the number of edges traversed.
  EXPECT_LE(deep.frames_peak, 4 * shallow.frames_peak);
  EXPECT_LT(8 * deep.frames_peak, deep.frames_pushed);
}

// ------------------------------------------------------------- validation

class RogueScheduler : public Scheduler {
 public:
  enum class Mode { kOverweight, kDisabledAction };
  explicit RogueScheduler(Mode mode) : mode_(mode) {}
  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) override {
    ActionChoice c;
    if (mode_ == Mode::kOverweight) {
      const ActionSet en = automaton.enabled(alpha.lstate());
      if (!en.empty()) c.add(en.front(), Rational(3, 2));
    } else {
      c.add(act("xe_never_enabled"), Rational(1));
    }
    return c;
  }
  std::string name() const override { return "xe_rogue"; }

 private:
  Mode mode_;
};

TEST(ExactEngineValidation, IterativeRejectsRogueSchedulers) {
  TraceInsight f;
  for (const auto mode : {RogueScheduler::Mode::kOverweight,
                          RogueScheduler::Mode::kDisabledAction}) {
    PsioaPtr sys = faulty_channel_factory("xe_v1")();
    RogueScheduler rogue(mode);
    EXPECT_THROW(exact_fdist(*sys, rogue, f, 4), std::logic_error);
  }
}

TEST(ExactEngineValidation, ParallelEngineRejectsRogueSchedulers) {
  TraceInsight f;
  for (const auto mode : {RogueScheduler::Mode::kOverweight,
                          RogueScheduler::Mode::kDisabledAction}) {
    ParallelConeEngine engine(
        faulty_channel_factory("xe_v2"),
        [mode]() -> SchedulerPtr {
          return std::make_shared<RogueScheduler>(mode);
        });
    WarmupPlan plan;
    plan.episodes = 0;
    plan.horizon = 4;
    engine.prepare(plan, 4);
    ThreadPool pool(2);
    EXPECT_THROW(engine.exact_fdist(f, 4, pool), std::logic_error);
  }
}

// ------------------------------------------------------------- grid/sweep

TEST(ExactEngineGrid, ParallelImplementationCheckMatchesSerial) {
  const std::string tag = "xe_g";
  const PsioaFactory make_a = [tag]() -> PsioaPtr {
    return make_otmac_pair(2, tag).real.ptr();
  };
  const PsioaFactory make_b = [tag]() -> PsioaPtr {
    return make_otmac_pair(2, tag).ideal.ptr();
  };
  auto make_env = [tag]() -> PsioaPtr {
    return make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
  };
  auto make_word = [tag]() -> SchedulerPtr {
    return std::make_shared<SequenceScheduler>(
        std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                              act("forged_" + tag), act("acc_" + tag)},
        /*local_only=*/true);
  };
  auto make_uniform = []() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(6);
  };
  TraceInsight f;

  const std::vector<LabeledPsioa> envs{{"probe", make_env()}};
  const std::vector<LabeledScheduler> scheds{{"word", make_word()},
                                             {"uniform", make_uniform()}};
  const ImplementationReport serial = check_implementation(
      make_a(), make_b(), envs, scheds, same_scheduler(), f, 8);

  const std::vector<LabeledPsioaFactory> fenvs{{"probe", make_env}};
  const std::vector<LabeledSchedulerFactory> fscheds{{"word", make_word},
                                                     {"uniform", make_uniform}};
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const ImplementationReport par = check_implementation_parallel(
        make_a, make_b, fenvs, fscheds, same_scheduler(), f, 8, pool);
    ASSERT_EQ(par.rows.size(), serial.rows.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
      EXPECT_EQ(par.rows[i].env, serial.rows[i].env);
      EXPECT_EQ(par.rows[i].sched, serial.rows[i].sched);
      EXPECT_EQ(par.rows[i].eps, serial.rows[i].eps)
          << "workers=" << workers << " row " << i;
    }
    EXPECT_EQ(par.max_eps, serial.max_eps) << "workers=" << workers;
  }
}

TEST(ExactEngineGrid, FamilySweepIsWorkerCountIndependent) {
  const std::string base = "xe_fs";
  PsioaFamily real{
      "real", [base](std::uint32_t k) -> PsioaPtr {
        const std::string tag = base + std::to_string(k);
        const RealIdealPair pair = make_otmac_pair(k, tag);
        auto env = make_probe_env_matching(
            "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
            act("forged_" + tag), act("acc_" + tag));
        auto adv =
            make_sink_adversary(tag + "_adv", {}, acts({"forge_" + tag}));
        return compose(env, compose(pair.real.ptr(), adv));
      }};
  PsioaFamily ideal = real;
  ideal.name = "ideal";
  ideal.make = [base](std::uint32_t k) -> PsioaPtr {
    const std::string tag = base + std::to_string(k);
    const RealIdealPair pair = make_otmac_pair(k, tag);
    auto env = make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
    auto adv = make_sink_adversary(tag + "_adv", {}, acts({"forge_" + tag}));
    return compose(env, compose(pair.ideal.ptr(), adv));
  };
  SchedulerFamily word{
      "word", [base](std::uint32_t k) -> SchedulerPtr {
        const std::string tag = base + std::to_string(k);
        return std::make_shared<SequenceScheduler>(
            std::vector<ActionId>{act("auth_" + tag), act("forge_" + tag),
                                  act("forged_" + tag), act("acc_" + tag)},
            /*local_only=*/true);
      }};
  const std::vector<std::uint32_t> ks{1, 2, 3, 4};

  auto sweep = [&](std::size_t workers) {
    ThreadPool pool(workers);
    return family_epsilon_sweep(real, ideal, word, TraceInsight(), ks, 12,
                                /*exact_upto=*/4, /*seed=*/1, pool);
  };
  const FamilySweepReport one = sweep(1);
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const FamilySweepReport many = sweep(workers);
    ASSERT_EQ(many.rows.size(), one.rows.size());
    for (std::size_t i = 0; i < one.rows.size(); ++i) {
      EXPECT_EQ(many.rows[i].k, one.rows[i].k);
      ASSERT_TRUE(many.rows[i].exact.has_value());
      ASSERT_TRUE(one.rows[i].exact.has_value());
      EXPECT_EQ(*many.rows[i].exact, *one.rows[i].exact)
          << "workers=" << workers << " k=" << one.rows[i].k;
      EXPECT_EQ(many.rows[i].sampled, one.rows[i].sampled);
    }
    EXPECT_EQ(many.negligible_looking, one.negligible_looking);
  }
  // The sweep's exact cells carry the closed-form MAC advantage.
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(*one.rows[i].exact,
              Rational(1, static_cast<std::int64_t>(1) << ks[i]));
  }
}

}  // namespace
}  // namespace cdse
