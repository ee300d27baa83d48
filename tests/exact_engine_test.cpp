// Iterative / parallel / prefix-sharing exact cone-measure engine
// (sched/exact_engine.hpp): differential + unit + determinism suite.
//
// Layers:
//   order        -- the iterative pending-edge enumerator must replay the
//                   recursive reference (reference_engines.hpp)
//                   visit-for-visit (same fragments, same probabilities,
//                   same pre-order), not just sum to the same measure.
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
//   search       -- search_best_word (prefix-shared), the per-word
//                   reference search, and search_best_word_parallel at
//                   1/2/4/8 workers return the identical word, epsilon,
//                   and words_evaluated, on the MAC pair and on the E13b
//                   faulty-channel workload (whose recorded answer is
//                   pinned too).
//   frames       -- regression guard: the live pending-edge stack scales
//                   with depth x branching, not with cone size; and
//                   ParallelConeEngine pushes exactly the serial frame
//                   count at every pool size, raw and reduced.
//   release      -- a reduced engine keeps only its quotient: prepare()
//                   releases the raw system.
//   rows         -- a raw leaf and its memoize() view give equal f-dists,
//                   frontiers and batched tallies (one row path).
//   validation   -- Def 3.1 side-condition throws propagate through the
//                   new engines exactly as through the recursive one.
//   grid/sweep   -- check_implementation_parallel and the parallel
//                   family sweep are worker-count independent and match
//                   their serial counterparts row for row.
//   overflow     -- every exact path ends in the typed overflow error,
//                   and a throwing subtree stops its siblings and keeps
//                   the counters of the work done.
//
// Suite names all start with "ExactEngine" so scripts/check.sh --tsan
// can select the concurrency-bearing cases by regex.

#include "sched/exact_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/byzantine.hpp"
#include "fault/crash.hpp"
#include "fault/faulty.hpp"
#include "impl/balance.hpp"
#include "impl/family_sweep.hpp"
#include "impl/implementation.hpp"
#include "impl/optimal.hpp"
#include "protocols/channel.hpp"
#include "protocols/cointoss.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/explicit_psioa.hpp"
#include "psioa/hide.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "reference_engines.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "secure/emulation.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

using testing::exact_fdist_recursive;
using testing::for_each_halted_execution_recursive;
using testing::search_best_word_legacy;

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

TEST(ExactEngineParallel, SmallConeEnumeratedInPhaseOne) {
  // A cone with fewer nodes than the breadth-first phase's target (four
  // subtrees per worker) never fills the frontier: phase 1 enumerates it
  // whole and fans nothing out.
  const PsioaFactory fa = faulty_channel_factory("xe_ft");
  constexpr std::size_t kSmallDepth = 2;
  TraceInsight f;
  PsioaPtr sys = fa();
  UniformScheduler sched(kSmallDepth);
  ConeStats serial;
  const ExactDisc<Perception> want =
      exact_fdist(*sys, sched, f, kSmallDepth, &serial);
  ThreadPool pool(8);
  ASSERT_LT(serial.frames_pushed + 1, 4 * pool.size());  // all its nodes
  ParallelConeEngine engine(fa, uniform_factory(kSmallDepth));
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = kSmallDepth;
  engine.prepare(plan, kSmallDepth);
  EXPECT_EQ(engine.exact_fdist(f, kSmallDepth, pool), want);
  EXPECT_EQ(engine.last_stats().splits, 0u);
  EXPECT_EQ(engine.last_stats().frames_pushed, serial.frames_pushed);
}

// ------------------------------------------------------------------- rows

TEST(ExactEngineRows, RawLeafAndMemoViewAgree) {
  // memo_rows reads a raw leaf through a MemoView of its own; handing
  // the engines the leaf or its memoize() view must give Rational-equal
  // f-dists and frontiers and bit-identical batched tallies.
  Xoshiro256 gen(2024);
  RandomPsioaConfig cfg;
  cfg.n_states = 5;
  cfg.enable_odds = 6;
  const std::string tag = "xe_rw";
  std::shared_ptr<ExplicitPsioa> leaf =
      make_random_psioa(tag + "_leaf", tag, cfg, gen);
  std::shared_ptr<MemoView> view = memoize(leaf);
  TraceInsight f;
  constexpr std::size_t kRowDepth = 6;

  UniformScheduler s_raw(kRowDepth);
  UniformScheduler s_memo(kRowDepth);
  ConeStats raw_stats;
  ConeStats memo_stats;
  const ExactDisc<Perception> raw =
      exact_fdist(*leaf, s_raw, f, kRowDepth, &raw_stats);
  EXPECT_EQ(raw, exact_fdist(*view, s_memo, f, kRowDepth, &memo_stats));
  EXPECT_GT(raw.entries().size(), 1u);
  EXPECT_EQ(raw_stats.frames_pushed, memo_stats.frames_pushed);

  const std::vector<ActionId> alphabet{act("rout0_" + tag),
                                       act("rout1_" + tag),
                                       act("rint0_" + tag)};
  ConeFrontierCache raw_cache(*leaf, f, kRowDepth);
  ConeFrontierCache memo_cache(*view, f, kRowDepth);
  std::vector<std::vector<ActionId>> words{{}};
  for (std::size_t w = 0; w < words.size(); ++w) {
    const ConeFrontier& a = raw_cache.frontier(words[w]);
    const ConeFrontier& b = memo_cache.frontier(words[w]);
    EXPECT_EQ(a.fdist, b.fdist);
    EXPECT_EQ(a.settled, b.settled);
    EXPECT_EQ(a.max_reached, b.max_reached);
    ASSERT_EQ(a.live.size(), b.live.size());
    for (std::size_t i = 0; i < a.live.size(); ++i) {
      EXPECT_EQ(a.live[i].frag, b.live[i].frag);
      EXPECT_EQ(a.live[i].prob, b.live[i].prob);
      EXPECT_EQ(a.live[i].perc, b.live[i].perc);
    }
    if (words[w].size() < 3) {
      for (ActionId x : alphabet) {
        std::vector<ActionId> child = words[w];
        child.push_back(x);
        words.push_back(std::move(child));
      }
    }
  }
  EXPECT_EQ(raw_cache.stats().leaves, memo_cache.stats().leaves);

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    UniformScheduler b_raw(kRowDepth);
    UniformScheduler b_memo(kRowDepth);
    BatchStats raw_batch;
    BatchStats memo_batch;
    const Disc<Perception, double> t_raw = sample_fdist_batched(
        *leaf, b_raw, f, 4096, seed, kRowDepth, &raw_batch);
    const Disc<Perception, double> t_memo = sample_fdist_batched(
        *view, b_memo, f, 4096, seed, kRowDepth, &memo_batch);
    EXPECT_TRUE(t_raw == t_memo) << "seed " << seed;
    EXPECT_EQ(raw_batch.split_draws, memo_batch.split_draws);
    EXPECT_EQ(raw_batch.row_lookups, memo_batch.row_lookups);
  }
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

/// The per-word reference search, the prefix-shared search and the
/// parallel search at every worker count must return the identical word,
/// epsilon and words_evaluated. Factories build everything fresh per
/// call: pool workers each get their own instances, never sharing a memo
/// table. Returns the reference result.
BestDistinguisher expect_searches_agree(const PsioaFactory& make_lhs,
                                        const PsioaFactory& make_rhs,
                                        const std::vector<ActionId>& alphabet,
                                        std::size_t max_len,
                                        std::size_t depth) {
  TraceInsight f;
  PsioaPtr l1 = make_lhs();
  PsioaPtr r1 = make_rhs();
  const BestDistinguisher legacy =
      search_best_word_legacy(*l1, *r1, alphabet, max_len, f, depth);

  PsioaPtr l2 = make_lhs();
  PsioaPtr r2 = make_rhs();
  const BestDistinguisher shared =
      search_best_word(*l2, *r2, alphabet, max_len, f, depth);
  EXPECT_EQ(shared.word, legacy.word);
  EXPECT_EQ(shared.eps, legacy.eps);
  EXPECT_EQ(shared.words_evaluated, legacy.words_evaluated);
  // The whole point of the frontier cache: deeper words reuse ancestors.
  EXPECT_GT(shared.stats.prefix_hits, 0u);
  EXPECT_GT(shared.stats.prefix_misses, 0u);

  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const BestDistinguisher par = search_best_word_parallel(
        make_lhs, make_rhs, alphabet, max_len, f, depth, pool);
    EXPECT_EQ(par.word, legacy.word) << "workers=" << workers;
    EXPECT_EQ(par.eps, legacy.eps) << "workers=" << workers;
    EXPECT_EQ(par.words_evaluated, legacy.words_evaluated)
        << "workers=" << workers;
  }
  return legacy;
}

TEST(ExactEngineSearch, LegacyPrefixSharedAndParallelAgree) {
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
  const BestDistinguisher legacy =
      expect_searches_agree(make_lhs, make_rhs, alphabet, 4, 10);
  EXPECT_EQ(legacy.eps, Rational(1, 4));
}

TEST(ExactEngineSearch, FaultyChannelWorkloadMatchesReference) {
  // The E13b workload: two faulty channels with different fault rates,
  // whose probabilistic fault branching gives every word a real cone.
  // bench_optimal_distinguisher times the production searches on it and
  // checks them against this recorded answer.
  const std::string tag = "xe_e13b";
  FaultPlan plan_l;
  plan_l.drop = Rational(1, 8);
  plan_l.duplicate = Rational(1, 8);
  plan_l.delay = Rational(1, 4);
  FaultPlan plan_r;
  plan_r.drop = Rational(1, 4);
  plan_r.duplicate = Rational(1, 8);
  plan_r.delay = Rational(1, 8);
  const PsioaFactory make_lhs = [tag, plan_l]() -> PsioaPtr {
    return make_faulty_channel(tag, plan_l);
  };
  const PsioaFactory make_rhs = [tag, plan_r]() -> PsioaPtr {
    return make_faulty_channel(tag, plan_r);
  };
  const std::vector<ActionId> alphabet{
      act("send0_" + tag), act("send1_" + tag), act("recv0_" + tag),
      act("recv1_" + tag), act("faultdeliver_" + tag)};
  const BestDistinguisher legacy =
      expect_searches_agree(make_lhs, make_rhs, alphabet, 7, 12);
  EXPECT_EQ(legacy.eps, Rational(33, 256));
  EXPECT_EQ(legacy.words_evaluated, 4166u);
  const ActionId send0 = act("send0_" + tag);
  const ActionId deliver = act("faultdeliver_" + tag);
  const ActionId recv0 = act("recv0_" + tag);
  EXPECT_EQ(legacy.word, (std::vector<ActionId>{send0, send0, deliver, recv0,
                                                send0, send0}));
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

/// Two forks in parallel: each idle state branches uniformly (internal
/// action) into three bisimilar mid states that tick back to idle, so
/// the bisimulation quotient enumerates a strictly smaller cone.
PsioaFactory fork_product_factory(const std::string& tag) {
  const auto fork = [](const std::string& t) {
    auto p = std::make_shared<ExplicitPsioa>("fork_" + t);
    const State idle = p->add_state("idle");
    Signature sig_idle;
    sig_idle.internal = {act("branch_" + t)};
    p->set_signature(idle, sig_idle);
    p->set_start(idle);
    Signature sig_mid;
    sig_mid.out = {act("tick_" + t)};
    StateDist spread;
    for (int i = 0; i < 3; ++i) {
      const State mid = p->add_state("mid" + std::to_string(i));
      p->set_signature(mid, sig_mid);
      p->add_step(mid, act("tick_" + t), idle);
      spread.add(mid, Rational(1, 3));
    }
    p->add_transition(idle, act("branch_" + t), spread);
    p->validate();
    return p;
  };
  return [fork, tag]() -> PsioaPtr {
    return compose(fork(tag + "a"), fork(tag + "b"));
  };
}

TEST(ExactEngineFrames, ParallelFramesPushedEqualSerialAtEveryPoolSize) {
  // frames_pushed counts the edges of the cone, so ParallelConeEngine
  // reports the serial walk's count whatever its frontier target: the
  // edges its breadth-first phase expands count as well as the ones its
  // subtrees push. Raw and bisimulation-reduced alike.
  const PsioaFactory fa = fork_product_factory("xe_fpc");
  const std::size_t depth = kDepth + 1;
  TraceInsight f;
  ConeStats raw;
  ConeStats reduced;
  {
    PsioaPtr sys = fa();
    UniformScheduler sched(kDepth);
    (void)exact_fdist(*sys, sched, f, depth, &raw);
    PsioaPtr sys2 = fa();
    const auto red = reduce_for_enumeration(*sys2, depth,
                                            ReductionPolicy::bisimulation());
    ASSERT_TRUE(red.has_value());
    UniformScheduler sched2(kDepth);
    (void)exact_fdist(*red->view, sched2, f, depth, &reduced);
  }
  ASSERT_GT(raw.frames_pushed, reduced.frames_pushed);
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = depth;
  for (const ReductionPolicy& policy :
       {ReductionPolicy::none(), ReductionPolicy::bisimulation()}) {
    ParallelConeEngine engine(fa, uniform_factory(kDepth), policy);
    engine.prepare(plan, depth);
    ASSERT_EQ(engine.reduced() != nullptr, policy.enabled());
    const ConeStats& want = policy.enabled() ? reduced : raw;
    for (std::size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      (void)engine.exact_fdist(f, depth, pool);
      EXPECT_EQ(engine.last_stats().frames_pushed, want.frames_pushed)
          << "workers=" << workers << " reduced=" << policy.enabled();
      EXPECT_EQ(engine.last_stats().leaves, want.leaves);
      EXPECT_EQ(engine.last_stats().halts, want.halts);
    }
  }
}

// ---------------------------------------------------------------- release

TEST(ExactEngineRelease, ReducedEngineReleasesItsRawSystem) {
  // A reduced engine keeps only its quotient, so prepare() under
  // bisimulation() must drop the raw system -- warm instance, raw
  // snapshot and residue -- which the automaton's deleter observes.
  // Without reduction the raw system is the engine's working set.
  const PsioaFactory inner = fork_product_factory("xe_rel");
  const std::size_t depth = kDepth + 1;
  TraceInsight f;
  ExactDisc<Perception> want;
  {
    PsioaPtr sys = inner();
    UniformScheduler sched(kDepth);
    want = exact_fdist(*sys, sched, f, depth);
  }
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = depth;
  for (const ReductionPolicy& policy :
       {ReductionPolicy::none(), ReductionPolicy::bisimulation()}) {
    auto released = std::make_shared<bool>(false);
    const PsioaFactory fa = [inner, released]() -> PsioaPtr {
      return std::shared_ptr<MemoView>(new MemoView(inner()),
                                       [released](MemoView* p) {
                                         *released = true;
                                         delete p;
                                       });
    };
    ParallelConeEngine engine(fa, uniform_factory(kDepth), policy);
    engine.prepare(plan, depth);
    EXPECT_EQ(*released, policy.enabled())
        << "reduced=" << policy.enabled();
    EXPECT_EQ(engine.reduced() != nullptr, policy.enabled());
    ThreadPool pool(2);
    EXPECT_EQ(engine.exact_fdist(f, depth, pool), want)
        << "reduced=" << policy.enabled();
  }
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

// ------------------------------------------------------ overflow contract
// E15's real coin toss at k = 4 under uniform scheduling is enumerable to
// depth 11; at depth 12 a cone weight leaves 64-bit Rationals after
// 566,976 frames. Every exact path, serial or fanned over a pool, and a
// verdict API whose split cone overflows must end in the typed
// std::overflow_error, never an abort or a wrong answer.

constexpr std::size_t kOverflowDepth = 12;

PsioaFactory cointoss_side(bool real) {
  return [real]() -> PsioaPtr {
    const CoinTossPair ct = make_cointoss_pair(4, "xe_ov");
    return real ? ct.real.ptr() : ct.ideal.ptr();
  };
}

TEST(ExactEngineOverflow, ExactBalanceEpsilonThrowsTypedError) {
  PsioaPtr real = cointoss_side(true)();
  PsioaPtr ideal = cointoss_side(false)();
  UniformScheduler s_real(kOverflowDepth);
  UniformScheduler s_ideal(kOverflowDepth);
  EXPECT_THROW(exact_balance_epsilon(*real, s_real, *ideal, s_ideal,
                                     TraceInsight(), kOverflowDepth),
               std::overflow_error);
}

void expect_parallel_overflow(std::size_t workers) {
  ParallelConeEngine engine(cointoss_side(true),
                            uniform_factory(kOverflowDepth));
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = kOverflowDepth;
  engine.prepare(plan, kOverflowDepth);
  ThreadPool pool(workers);
  EXPECT_THROW(engine.exact_fdist(TraceInsight(), kOverflowDepth, pool),
               std::overflow_error)
      << workers << " workers";
}

TEST(ExactEngineOverflow, ParallelEngineThrowsTypedErrorAtOneWorker) {
  expect_parallel_overflow(1);
}

TEST(ExactEngineOverflow, ParallelEngineThrowsTypedErrorAtFourWorkers) {
  expect_parallel_overflow(4);
}

/// Shared by the LatchScheduler instances of one engine: the subtree
/// roots their choose() saw, and a latch the instance that threw opens
/// when it is destroyed -- which the engine does only after the throw
/// has stopped further subtrees.
struct SubtreeProbe {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool timed_out = false;
  std::vector<std::vector<ActionId>> roots;
};

/// Uniform choices, plus the probe: at a subtree root (length kRootLen)
/// it records the root, throws at `thrower`, and waits at `waiter` until
/// the thrower's instance is gone.
class LatchScheduler : public Scheduler {
 public:
  static constexpr std::size_t kRootLen = 3;

  LatchScheduler(std::shared_ptr<SubtreeProbe> probe, std::size_t depth,
                 std::vector<ActionId> thrower, std::vector<ActionId> waiter)
      : probe_(std::move(probe)),
        inner_(depth),
        thrower_(std::move(thrower)),
        waiter_(std::move(waiter)) {}
  LatchScheduler(const LatchScheduler&) = delete;
  LatchScheduler& operator=(const LatchScheduler&) = delete;
  ~LatchScheduler() override {
    if (!threw_) return;
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      probe_->open = true;
    }
    probe_->cv.notify_all();
  }

  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) override {
    if (alpha.length() == kRootLen) {
      std::unique_lock<std::mutex> lock(probe_->mu);
      probe_->roots.push_back(alpha.actions());
      if (alpha.actions() == thrower_) {
        threw_ = true;
        throw std::runtime_error("xe_latch: subtree down");
      }
      if (alpha.actions() == waiter_ &&
          !probe_->cv.wait_for(lock, std::chrono::seconds(60),
                               [this] { return probe_->open; })) {
        probe_->timed_out = true;
      }
    }
    return inner_.choose(automaton, alpha);
  }
  std::string name() const override { return "xe_latch"; }

 private:
  std::shared_ptr<SubtreeProbe> probe_;
  UniformScheduler inner_;
  std::vector<ActionId> thrower_;
  std::vector<ActionId> waiter_;
  bool threw_ = false;
};

TEST(ExactEngineOverflow, ThrowingSubtreeStopsSiblingsAndKeepsCounters) {
  // One state with two self-loop outputs: the cone is the binary tree of
  // action words. At 2 workers phase 1 expands it to the 8 roots of
  // length 3, in breadth-first order, and chunk 0 takes the 4 that start
  // with the smaller action id, chunk 1 the other 4. Chunk 0 throws in
  // its first subtree; chunk 1 holds its first subtree open until the
  // throwing scheduler is destroyed, then must start no further subtree.
  const ActionId x = act("xe_lt_x");
  const ActionId y = act("xe_lt_y");
  const ActionId lo = std::min(x, y);
  const ActionId hi = std::max(x, y);
  const PsioaFactory make_loop = [x, y]() -> PsioaPtr {
    auto loop = std::make_shared<ExplicitPsioa>("xe_lt_loop");
    const State s = loop->add_state("s");
    loop->set_start(s);
    Signature sig;
    sig.out = {std::min(x, y), std::max(x, y)};
    loop->set_signature(s, sig);
    loop->add_step(s, x, s);
    loop->add_step(s, y, s);
    loop->validate();
    return loop;
  };
  constexpr std::size_t kLoopDepth = 5;
  auto probe = std::make_shared<SubtreeProbe>();
  const std::vector<ActionId> thrower{lo, lo, lo};
  const std::vector<ActionId> waiter{hi, lo, lo};
  ParallelConeEngine engine(make_loop, [=]() -> SchedulerPtr {
    return std::make_shared<LatchScheduler>(probe, kLoopDepth, thrower,
                                            waiter);
  });
  WarmupPlan plan;
  plan.episodes = 0;  // no warm-up walk may reach a subtree root
  plan.horizon = kLoopDepth;
  engine.prepare(plan, kLoopDepth);
  ThreadPool pool(2);
  EXPECT_THROW(engine.exact_fdist(TraceInsight(), kLoopDepth, pool),
               std::runtime_error);
  EXPECT_FALSE(probe->timed_out);
  EXPECT_EQ(engine.last_stats().splits, 8u);
  EXPECT_GT(engine.last_stats().frames_pushed, 0u);
  ASSERT_FALSE(probe->roots.empty());
  for (const auto& root : probe->roots) {
    EXPECT_TRUE(root == thrower || root == waiter)
        << "a subtree started after the throw";
  }
}

TEST(ExactEngineOverflow, SplitSequentialEpsilonThrowsTypedError) {
  // The split path enumerates each side's exact prefix cone first, so a
  // split depth at the overflow depth fails before any sampling.
  SequentialPolicy policy = SequentialPolicy::fixed(std::size_t{1} << 20);
  policy.split_depth = kOverflowDepth;
  ThreadPool pool(2);
  EXPECT_THROW(sequential_balance_epsilon(
                   cointoss_side(true), uniform_factory(kOverflowDepth),
                   cointoss_side(false), uniform_factory(kOverflowDepth),
                   TraceInsight(), policy, 1, kOverflowDepth, pool),
               std::overflow_error);
}

}  // namespace
}  // namespace cdse
