// Quotient-reduced exact engine (impl/bisim.hpp bisimulation_partition +
// CompiledSnapshot::quotient + ReductionPolicy): unit + differential.
//
// Layers:
//   unit         -- the singleton (identity) partition is a monotone
//                   rename: the quotient replays the original snapshot
//                   draw for draw (same targets modulo rename, the same
//                   cdf doubles). Merged same-signature branches lump;
//                   invalid partitions throw; frontier states stay
//                   singletons; a frozen-only view throws outside the
//                   quotient; a truncated warm-up is not reduced.
//   differential -- epsilon on the quotient == epsilon on the original,
//                   EXACTLY (Rational-equal), across the same stack zoo
//                   the exact-engine suite pins (random composed,
//                   hidden+renamed, structured MAC, PCA ledger, faulty
//                   channel, crashable, byzantine), serial and through
//                   ParallelConeEngine at 1/2/4/8 workers.
//   search/grid  -- search_best_word[_parallel],
//                   check_implementation_parallel and the family sweep
//                   under ReductionPolicy::bisimulation() reproduce
//                   their unreduced results bit for bit.
//
// Suite names all start with "Quotient" so scripts/check.sh --tsan can
// select the concurrency-bearing cases by regex.

#include "psioa/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/pairs.hpp"
#include "fault/byzantine.hpp"
#include "fault/crash.hpp"
#include "fault/faulty.hpp"
#include "impl/bisim.hpp"
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
#include "reference_engines.hpp"
#include "sched/exact_engine.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "secure/emulation.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

using testing::exact_fdist_recursive;

constexpr std::size_t kDepth = 4;
const std::size_t kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------------------- stack zoo
// Same shapes as the exact-engine differential suite, under fresh "qt_"
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

/// A covering snapshot of one fresh instance (horizon = depth, like
/// reduce_for_enumeration's walk).
std::shared_ptr<const CompiledSnapshot> freeze_stack(const PsioaFactory& fa,
                                                     std::size_t depth) {
  PsioaPtr sys = fa();
  auto memo = memoize(sys);
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = depth;
  UniformScheduler uniform(depth);
  warm_automaton(*memo, uniform, plan, depth);
  return memo->freeze();
}

ExactDisc<Perception> reference_fdist(const PsioaFactory& fa) {
  PsioaPtr sys = fa();
  UniformScheduler sched(kDepth);
  TraceInsight f;
  return exact_fdist_recursive(*sys, sched, f, kDepth + 1);
}

// ----------------------------------------------------------------- unit

TEST(QuotientUnit, SingletonPartitionIsMonotoneRename) {
  const auto snap = freeze_stack(composed_factory(2, "qt_id"), kDepth + 1);

  // Identity partition in sorted-handle order: block i = i-th handle.
  std::vector<State> handles;
  for (const auto& [q, fs] : snap->frozen_states()) {
    (void)fs;
    handles.push_back(q);
  }
  std::sort(handles.begin(), handles.end());
  SnapshotPartition part;
  part.blocks = handles.size();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    part.block_of.emplace(handles[i], i);
  }

  const QuotientSnapshot q = snap->quotient(part);
  ASSERT_NE(q.reduced, nullptr);
  EXPECT_EQ(q.blocks, snap->state_count());
  EXPECT_EQ(q.reduced->state_count(), snap->state_count());
  EXPECT_EQ(q.reduced->row_count(), snap->row_count());
  EXPECT_EQ(q.dropped_rows, 0u);
  EXPECT_EQ(q.reduced->start_state(),
            State{part.block_of.at(snap->start_state())});

  // Draw-for-draw identity: every row's targets are the monotone rename
  // of the original's (same entry order), and the cdf doubles -- the
  // sampling surface -- are bit-identical, not just rational-equal.
  for (const auto& [orig, fs] : snap->frozen_states()) {
    const State block = State{part.block_of.at(orig)};
    const auto& rfs = q.reduced->frozen_states().at(block);
    ASSERT_EQ(rfs.sig.has_value(), fs.sig.has_value());
    ASSERT_EQ(rfs.rows.size(), fs.rows.size());
    for (const auto& [a, row] : fs.rows) {
      const CompiledRow* rrow = q.reduced->find_row(block, a);
      ASSERT_NE(rrow, nullptr);
      ASSERT_EQ(rrow->targets.size(), row.targets.size());
      for (std::size_t i = 0; i < row.targets.size(); ++i) {
        EXPECT_EQ(rrow->targets[i],
                  State{part.block_of.at(row.targets[i])});
        EXPECT_EQ(rrow->cdf[i], row.cdf[i]);
        EXPECT_EQ(rrow->dist.entries()[i].second, row.dist.entries()[i].second);
      }
    }
  }
}

TEST(QuotientUnit, MergedBranchesLumpAndWeightsSumExactly) {
  // The split automaton of the bisim suite: two same-signature "yes"
  // targets carrying 1/4 each. The partitioner must lump them into one
  // block and the quotient row must carry their exact 1/2 sum.
  auto split = std::make_shared<ExplicitPsioa>("qt_sp");
  const State s0 = split->add_state("idle");
  const State y1 = split->add_state("yes1");
  const State y2 = split->add_state("yes2");
  const State sn = split->add_state("no");
  const State sd = split->add_state("done");
  split->set_start(s0);
  Signature sig0;
  sig0.in = acts({"qt_go"});
  split->set_signature(s0, sig0);
  Signature sigy;
  sigy.out = acts({"qt_y"});
  split->set_signature(y1, sigy);
  split->set_signature(y2, sigy);
  Signature sign;
  sign.out = acts({"qt_n"});
  split->set_signature(sn, sign);
  split->set_signature(sd, Signature{});
  StateDist d;
  d.add(y1, Rational(1, 4));
  d.add(y2, Rational(1, 4));
  d.add(sn, Rational(1, 2));
  split->add_transition(s0, act("qt_go"), d);
  split->add_step(y1, act("qt_y"), sd);
  split->add_step(y2, act("qt_y"), sd);
  split->add_step(sn, act("qt_n"), sd);
  split->validate();

  const PsioaFactory fa = [split]() -> PsioaPtr { return split; };
  const auto snap = freeze_stack(fa, 8);
  ASSERT_EQ(snap->state_count(), 5u);

  PartitionStats pstats;
  const SnapshotPartition part = bisimulation_partition(*snap, &pstats);
  EXPECT_EQ(pstats.states, 5u);
  EXPECT_EQ(pstats.frontier, 0u);
  EXPECT_EQ(pstats.blocks, 4u);  // {idle} {yes1,yes2} {no} {done}
  EXPECT_EQ(part.block_of.at(y1), part.block_of.at(y2));

  const QuotientSnapshot q = snap->quotient(part);
  const CompiledRow* row =
      q.reduced->find_row(State{part.block_of.at(s0)}, act("qt_go"));
  ASSERT_NE(row, nullptr);
  ASSERT_EQ(row->targets.size(), 2u);  // yes-block + no-block
  const Rational yes_mass =
      row->dist.mass(State{part.block_of.at(y1)});
  EXPECT_EQ(yes_mass, Rational(1, 2));

  // And the reduced view replays the original's exact f-dist.
  TraceInsight f;
  UniformScheduler s_orig(8);
  const ExactDisc<Perception> want = exact_fdist_recursive(*split, s_orig, f, 8);
  SnapshotPsioa view(q.reduced);
  UniformScheduler s_red(8);
  EXPECT_EQ(exact_fdist(view, s_red, f, 8), want);
}

TEST(QuotientUnit, InvalidPartitionsThrow) {
  const auto snap = freeze_stack(faulty_channel_factory("qt_bad"), 4);
  {
    SnapshotPartition missing;  // covers nothing
    missing.blocks = 1;
    EXPECT_THROW((void)snap->quotient(missing), std::invalid_argument);
  }
  {
    SnapshotPartition oob;  // ids out of range
    oob.blocks = 1;
    for (const auto& [q, fs] : snap->frozen_states()) {
      (void)fs;
      oob.block_of.emplace(q, 7);
    }
    EXPECT_THROW((void)snap->quotient(oob), std::invalid_argument);
  }
}

TEST(QuotientUnit, FrontierStatesStaySingletons) {
  // A shallow horizon leaves depth-cut states incompletely frozen; the
  // partitioner must pin every one of them to its own block rather than
  // merging partial knowledge.
  const auto snap = freeze_stack(ledger_factory("qt_fr"), 2);
  PartitionStats pstats;
  (void)bisimulation_partition(*snap, &pstats);
  EXPECT_GT(pstats.frontier, 0u);
  EXPECT_GE(pstats.blocks, pstats.frontier);
}

TEST(QuotientUnit, FrozenOnlyViewThrowsOutsideTheQuotient) {
  // A view without a residue has no instance to compute a miss on: a
  // lookup outside the quotient's frozen tables must throw, never
  // recompute. A shallow horizon leaves depth-cut blocks whose
  // signatures are frozen but whose rows are not.
  const auto snap = freeze_stack(ledger_factory("qt_fo"), 2);
  const ReducedSystem red = reduce_snapshot(*snap);
  SnapshotPsioa& view = *red.view;
  const State start = view.start_state();
  EXPECT_EQ(view.state_label(start), "block" + std::to_string(start));
  EXPECT_TRUE(view.encode_state(start) == BitString::from_uint(start));
  (void)view.signature_ref(start);  // frozen: served

  const State outside = static_cast<State>(red.blocks);  // no such block
  try {
    (void)view.signature_ref(outside);
    ADD_FAILURE() << "a signature miss did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("frozen horizon"),
              std::string::npos)
        << e.what();
  }

  bool cut_found = false;
  for (const auto& [b, fs] : red.snapshot->frozen_states()) {
    if (!fs.sig.has_value()) continue;
    for (ActionId a : fs.sig->all()) {
      if (fs.rows.count(a) != 0) continue;
      cut_found = true;
      EXPECT_THROW((void)view.compiled_row(b, a), std::logic_error);
      break;
    }
    if (cut_found) break;
  }
  EXPECT_TRUE(cut_found);
}

TEST(QuotientUnit, ReduceForEnumerationFallsBackOnTruncation) {
  // A walk that stops at WarmupPlan::max_states does not cover the cone:
  // the engine keeps its raw snapshot, whose residue computes the rest,
  // and answers exactly.
  WarmupPlan tiny;
  tiny.episodes = 0;
  tiny.horizon = kDepth + 1;
  tiny.max_states = 2;  // the ledger blows past this immediately
  const PsioaFactory fa = ledger_factory("qt_tr");
  ParallelConeEngine engine(fa, uniform_factory(kDepth),
                            ReductionPolicy::bisimulation());
  engine.prepare(tiny, kDepth + 1);
  EXPECT_EQ(engine.reduced(), nullptr);
  ThreadPool pool(2);
  TraceInsight f;
  EXPECT_EQ(engine.exact_fdist(f, kDepth + 1, pool), reference_fdist(fa));
  // Nor does a horizon-0 warm-up, whose walk never runs: at depth 0 the
  // engine stays raw instead of quotienting an empty snapshot.
  ParallelConeEngine shallow(fa, uniform_factory(kDepth),
                             ReductionPolicy::bisimulation());
  shallow.prepare(WarmupPlan{}, 0);
  EXPECT_EQ(shallow.reduced(), nullptr);
  EXPECT_EQ(shallow.exact_fdist(f, 0, pool).total(), Rational(1));
  // reduce_for_enumeration falls back at depth 0 and under none().
  PsioaPtr sys2 = ledger_factory("qt_tr2")();
  EXPECT_FALSE(
      reduce_for_enumeration(*sys2, 0, ReductionPolicy::bisimulation())
          .has_value());
  PsioaPtr sys3 = ledger_factory("qt_tr3")();
  EXPECT_FALSE(reduce_for_enumeration(*sys3, 6, ReductionPolicy::none())
                   .has_value());
}

// ---------------------------------------------------------- differential

/// Serial reduced enumeration and ParallelConeEngine under the policy at
/// every worker count must reproduce the recursive reference exactly.
void expect_quotient_agrees(const PsioaFactory& fa) {
  const ExactDisc<Perception> want = reference_fdist(fa);
  TraceInsight f;

  {
    PsioaPtr sys = fa();
    const auto red = reduce_for_enumeration(*sys, kDepth + 1,
                                            ReductionPolicy::bisimulation());
    ASSERT_TRUE(red.has_value());
    EXPECT_GT(red->blocks, 0u);
    EXPECT_LE(red->blocks, red->states);
    UniformScheduler sched(kDepth);
    ConeStats stats;
    EXPECT_EQ(exact_fdist(*red->view, sched, f, kDepth + 1, &stats), want);
  }

  ParallelConeEngine engine(fa, uniform_factory(kDepth),
                            ReductionPolicy::bisimulation());
  WarmupPlan plan;
  plan.episodes = 0;
  plan.horizon = kDepth + 1;
  engine.prepare(plan, kDepth + 1);
  EXPECT_TRUE(engine.reduced());
  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    EXPECT_EQ(engine.exact_fdist(f, kDepth + 1, pool), want)
        << "workers=" << workers;
    EXPECT_GT(engine.last_stats().quotient_states, 0u);
    EXPECT_GT(engine.last_stats().quotient_blocks, 0u);
    EXPECT_LE(engine.last_stats().quotient_blocks,
              engine.last_stats().quotient_states);
  }
}

class QuotientDifferential : public ::testing::TestWithParam<int> {};

TEST_P(QuotientDifferential, ComposedStack) {
  const int n = GetParam();
  expect_quotient_agrees(composed_factory(n, "qt_a" + std::to_string(n)));
}

TEST_P(QuotientDifferential, HiddenRenamedStack) {
  const int n = GetParam();
  expect_quotient_agrees(hidden_renamed_factory(n, "qt_b" + std::to_string(n)));
}

INSTANTIATE_TEST_SUITE_P(Random, QuotientDifferential, ::testing::Range(0, 4));

TEST(QuotientStacks, StructuredSecureStack) {
  expect_quotient_agrees(mac_factory("qt_mac"));
}

TEST(QuotientStacks, PcaLedgerStack) {
  expect_quotient_agrees(ledger_factory("qt_led"));
}

TEST(QuotientStacks, FaultyChannelStack) {
  expect_quotient_agrees(faulty_channel_factory("qt_fl"));
}

TEST(QuotientStacks, CrashableStack) {
  expect_quotient_agrees(crashable_factory("qt_cr"));
}

TEST(QuotientStacks, ByzantineStack) {
  expect_quotient_agrees(byzantine_factory("qt_bz"));
}

TEST(QuotientStacks, SelfEpsilonIsZeroThroughThePolicy) {
  // A ~ A: the policy overload must report exactly zero between two
  // fresh instances of the same stack, with quotient counters filled.
  for (const PsioaFactory& fa :
       {mac_factory("qt_self"), faulty_channel_factory("qt_self2")}) {
    PsioaPtr a = fa();
    PsioaPtr b = fa();
    UniformScheduler sa(kDepth);
    UniformScheduler sb(kDepth);
    TraceInsight f;
    ConeStats stats;
    EXPECT_EQ(exact_balance_epsilon(*a, sa, *b, sb, f, kDepth + 1,
                                    ReductionPolicy::bisimulation(), &stats),
              Rational(0));
    EXPECT_GT(stats.quotient_blocks, 0u);
  }
}

TEST(QuotientStacks, PolicyEpsilonEqualsUnreducedEpsilon) {
  // The correctness contract, head on: epsilon through the policy ==
  // epsilon without it, Rational-equal, for a distinguishable pair.
  const std::string tag = "qt_eps";
  const RealIdealPair pair = make_otmac_pair(2, tag);
  auto env_factory = [tag]() -> PsioaPtr {
    return make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
  };
  auto adv_factory = [tag]() -> PsioaPtr {
    return make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
  };
  auto lhs = compose(env_factory(), compose(pair.real.ptr(), adv_factory()));
  auto rhs = compose(env_factory(), compose(pair.ideal.ptr(), adv_factory()));
  TraceInsight f;
  UniformScheduler s1(6);
  UniformScheduler s2(6);
  const Rational plain = exact_balance_epsilon(*lhs, s1, *rhs, s2, f, 6);
  auto lhs2 = compose(env_factory(), compose(pair.real.ptr(), adv_factory()));
  auto rhs2 = compose(env_factory(), compose(pair.ideal.ptr(), adv_factory()));
  UniformScheduler s3(6);
  UniformScheduler s4(6);
  EXPECT_EQ(exact_balance_epsilon(*lhs2, s3, *rhs2, s4, f, 6,
                                  ReductionPolicy::bisimulation()),
            plain);
}

// ------------------------------------------------------------ search/grid

TEST(QuotientSearch, PolicyPreservesWordEpsilonAndCount) {
  const PsioaFactory make_lhs = []() -> PsioaPtr {
    const RealIdealPair pair = make_otmac_pair(2, "qt_s");
    auto adv = make_sink_adversary("qt_s_adv", {}, acts({"forge_qt_s"}));
    return hidden_adversary_composition(pair.real, adv);
  };
  const PsioaFactory make_rhs = []() -> PsioaPtr {
    const RealIdealPair pair = make_otmac_pair(2, "qt_s");
    auto adv = make_sink_adversary("qt_s_adv", {}, acts({"forge_qt_s"}));
    return hidden_adversary_composition(pair.ideal, adv);
  };
  const std::vector<ActionId> alphabet{
      act("auth_qt_s"), act("forge_qt_s"), act("forged_qt_s"),
      act("rejected_qt_s")};
  TraceInsight f;

  PsioaPtr l1 = make_lhs();
  PsioaPtr r1 = make_rhs();
  const BestDistinguisher plain = search_best_word(*l1, *r1, alphabet, 4, f, 10);

  PsioaPtr l2 = make_lhs();
  PsioaPtr r2 = make_rhs();
  const BestDistinguisher red = search_best_word(
      *l2, *r2, alphabet, 4, f, 10, ReductionPolicy::bisimulation());
  EXPECT_EQ(red.word, plain.word);
  EXPECT_EQ(red.eps, plain.eps);
  EXPECT_EQ(red.words_evaluated, plain.words_evaluated);
  EXPECT_GT(red.stats.quotient_blocks, 0u);
  EXPECT_LE(red.stats.quotient_blocks, red.stats.quotient_states);

  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const BestDistinguisher par = search_best_word_parallel(
        make_lhs, make_rhs, alphabet, 4, f, 10, pool,
        ReductionPolicy::bisimulation());
    EXPECT_EQ(par.word, plain.word) << "workers=" << workers;
    EXPECT_EQ(par.eps, plain.eps) << "workers=" << workers;
    EXPECT_EQ(par.words_evaluated, plain.words_evaluated)
        << "workers=" << workers;
    // Both searches reduce each side in the same one step, over the same
    // covering warm-up.
    EXPECT_EQ(par.stats.quotient_states, red.stats.quotient_states)
        << "workers=" << workers;
    EXPECT_EQ(par.stats.quotient_blocks, red.stats.quotient_blocks)
        << "workers=" << workers;
  }
}

TEST(QuotientGrid, ImplementationCheckMatchesUnreduced) {
  const std::string tag = "qt_g";
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
        make_a, make_b, fenvs, fscheds, same_scheduler(), f, 8, pool,
        ReductionPolicy::bisimulation());
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

TEST(QuotientGrid, FamilySweepMatchesUnreduced) {
  const std::string base = "qt_fs";
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

  auto sweep = [&](const ReductionPolicy& policy) {
    ThreadPool pool(4);
    return family_epsilon_sweep(real, ideal, word, TraceInsight(), ks, 12,
                                /*exact_upto=*/4, /*seed=*/1, pool, policy);
  };
  const FamilySweepReport plain = sweep(ReductionPolicy::none());
  const FamilySweepReport red = sweep(ReductionPolicy::bisimulation());
  ASSERT_EQ(red.rows.size(), plain.rows.size());
  for (std::size_t i = 0; i < plain.rows.size(); ++i) {
    ASSERT_TRUE(red.rows[i].exact.has_value());
    ASSERT_TRUE(plain.rows[i].exact.has_value());
    EXPECT_EQ(*red.rows[i].exact, *plain.rows[i].exact) << "k=" << ks[i];
    // The sweep's exact cells carry the closed-form MAC advantage.
    EXPECT_EQ(*red.rows[i].exact,
              Rational(1, static_cast<std::int64_t>(1) << ks[i]));
  }
  EXPECT_EQ(red.negligible_looking, plain.negligible_looking);
}

}  // namespace
}  // namespace cdse
