// Trace-keyed perceptions (sched/insight.hpp PerceptionTable, the
// batched sampler's trace trie, and the dense look of
// sched/seq_estimator.hpp): the sampled path keys its tallies by
// perception ids and must still report exactly what the string-keyed
// path did.
//
//   table        -- interning, the incremental perception order, the
//                   trie, and the one-insight memo guard.
//   trace-keyed  -- a sampler's id-keyed counts, mapped through its
//                   table, equal bit for bit the counts of f.apply over
//                   the same sampler's fragments: under the trace,
//                   accept and print insights and a state-reading one,
//                   on the composed, hidden+renamed, MAC and dynamic
//                   ledger stacks, on raw automata and snapshot views,
//                   with and without (external-action) prefixes, with a
//                   table shared by two sides, and for stratified runs
//                   stepped on the pool with one table each. A
//                   TraceFunction is evaluated once per distinct trace
//                   over a whole sequential verdict.
//   dense look   -- the Disc look and the dense look return identical
//                   decisions across successive looks, and the verdict
//                   benchmark's ledger_seq cell keeps its seeded counts.
//
// Suite names start with "PerceptionTable", "TraceKeyed" or "DenseLook";
// scripts/check.sh --portable runs all three, and --tsan the stratified
// pool case.

#include "sched/insight.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/pairs.hpp"
#include "impl/balance.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "sched/batch_sampler.hpp"
#include "sched/exact_engine.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "sched/seq_estimator.hpp"
#include "secure/adversary.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

constexpr std::size_t kDepth = 6;
constexpr std::size_t kTrials = 3000;
const std::size_t kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------------------- stack zoo
// Same shapes as the batched-sampler suite, under fresh "pt_" tags.

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

/// The dynamic ledger PCA: its signatures change as it creates its
/// subchains, so whether an action is external depends on the state.
PsioaFactory ledger_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr { return make_ledger_system(2, tag).dynamic; };
}

PsioaFactory ledger_static_factory(const std::string& tag) {
  return [tag]() -> PsioaPtr {
    return make_ledger_system(2, tag).static_spec;
  };
}

SchedulerFactory uniform_factory(std::size_t depth) {
  return [depth]() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(depth);
  };
}

/// An insight that reads states, not just the trace: it takes the
/// generic path (one apply per terminal class, interned).
class LengthAndLastState : public InsightFunction {
 public:
  Perception apply(Psioa&, const ExecFragment& alpha) const override {
    return std::to_string(alpha.length()) + "@" +
           std::to_string(alpha.lstate() % 5);
  }
  std::string name() const override { return "length-last-state"; }
};

struct Stack {
  std::string label;
  PsioaFactory make;
  /// One external action of the stack, for the accept and print insights.
  ActionId probe;
};

std::vector<Stack> stack_zoo() {
  return {
      {"composed", composed_factory(3, "pt_c"), act("iout0_pt_ca")},
      {"hidden_renamed", hidden_renamed_factory(5, "pt_h"),
       act("iout0_pt_ha#in")},
      {"mac", mac_factory("pt_m"), act("forged_pt_m")},
      {"ledger", ledger_factory("pt_l"), act("ack1_pt_l")},
  };
}

std::vector<std::shared_ptr<InsightFunction>> insights_for(ActionId probe) {
  return {std::make_shared<TraceInsight>(),
          std::make_shared<AcceptInsight>(probe),
          std::make_shared<PrintInsight>(ActionSet{probe}),
          std::make_shared<LengthAndLastState>()};
}

Disc<Perception, double> as_counts(PerceptionTable& table,
                                   const std::vector<double>& dense) {
  return table.to_disc(dense, [](double c) { return c; });
}

/// The string-keyed reference: f.apply over every execution of a
/// finished sampler, one unit of mass each.
Disc<Perception, double> string_counts(const BatchSampler& bs, Psioa& aut,
                                       const InsightFunction& f) {
  Disc<Perception, double> out;
  for (const ExecFragment& alpha : bs.fragments()) {
    out.add(f.apply(aut, alpha), 1.0);
  }
  return out;
}

/// Runs `bs` to completion one round per wave, adding every wave's
/// id-keyed counts to a dense tally.
std::vector<double> run_keyed(BatchSampler& bs, const InsightFunction& f) {
  std::vector<double> dense;
  PerceptionCounts delta;
  while (!bs.done()) {
    bs.run_rounds(1);
    bs.take_counts(f, delta);
    add_counts(dense, delta);
  }
  return dense;
}

ParallelSampler prepared(const PsioaFactory& make) {
  ParallelSampler sampler(make, uniform_factory(kDepth));
  WarmupPlan plan;
  plan.horizon = kDepth;
  sampler.prepare(plan, kDepth);
  return sampler;
}

// ----------------------------------------------------------------- table

TEST(PerceptionTable, InternsOnceAndOrdersIdsByPerception) {
  PerceptionTable table;
  EXPECT_EQ(table.intern("m"), 0u);
  EXPECT_EQ(table.intern("c"), 1u);
  EXPECT_EQ(table.intern("m"), 0u);
  EXPECT_EQ(table.order(), (std::vector<PerceptionTable::Id>{1, 0}));
  // New ids merge into the existing order.
  EXPECT_EQ(table.intern("a"), 2u);
  EXPECT_EQ(table.intern("z"), 3u);
  EXPECT_EQ(table.intern("d"), 4u);
  EXPECT_EQ(table.order(), (std::vector<PerceptionTable::Id>{2, 1, 4, 0, 3}));
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.perception(4), "d");
  // to_disc: perception order, zero and missing counts dropped.
  const Disc<Perception, double> d =
      table.to_disc({0.0, 2.0, 4.0}, [](double c) { return c / 2.0; });
  ASSERT_EQ(d.support_size(), 2u);
  EXPECT_EQ(d.entries()[0], (std::pair<Perception, double>{"a", 2.0}));
  EXPECT_EQ(d.entries()[1], (std::pair<Perception, double>{"c", 1.0}));
}

TEST(PerceptionTable, TrieNamesTracesAndMemoizesOneInsight) {
  PerceptionTable table;
  const ActionId x = act("pt_trie_x");
  const ActionId y = act("pt_trie_y");
  const std::int32_t nx = table.extend(PerceptionTable::kEmptyTrace, x);
  const std::int32_t nxy = table.extend(nx, y);
  EXPECT_EQ(table.extend(PerceptionTable::kEmptyTrace, x), nx);
  EXPECT_NE(table.extend(nx, x), nxy);
  EXPECT_EQ(table.trace(nxy), (std::vector<ActionId>{x, y}));
  EXPECT_TRUE(table.trace(PerceptionTable::kEmptyTrace).empty());
  TraceInsight trace;
  const PerceptionTable::Id id = table.of_node(nxy, trace);
  EXPECT_EQ(table.perception(id), "pt_trie_x.pt_trie_y");
  EXPECT_EQ(table.of_node(nxy, trace), id);
  // A perception interned through either route gets one id.
  EXPECT_EQ(table.intern("pt_trie_x.pt_trie_y"), id);
  // The memo belongs to one insight function.
  PrintInsight print(ActionSet{x});
  EXPECT_THROW(table.of_node(nx, print), std::logic_error);
}

// ----------------------------------------------------------- trace-keyed

TEST(TraceKeyed, TalliesEqualStringTalliesOnRawAutomataAndViews) {
  for (const Stack& stack : stack_zoo()) {
    const ParallelSampler sampler = prepared(stack.make);
    for (const auto& f : insights_for(stack.probe)) {
      SCOPED_TRACE(stack.label + " / " + f->name());
      {
        PsioaPtr raw = stack.make();
        UniformScheduler sched(kDepth);
        PerceptionTable table;
        BatchSampler bs(*raw, sched, table, kTrials, Xoshiro256(21), kDepth);
        const std::vector<double> dense = run_keyed(bs, *f);
        EXPECT_EQ(as_counts(table, dense), string_counts(bs, *raw, *f))
            << "raw automaton";
      }
      {
        const auto view = sampler.worker_view();
        const SchedulerPtr sched = sampler.worker_scheduler();
        PerceptionTable table;
        BatchSampler bs(*view, *sched, table, kTrials, Xoshiro256(22),
                        kDepth);
        const std::vector<double> dense = run_keyed(bs, *f);
        EXPECT_EQ(as_counts(table, dense), string_counts(bs, *view, *f))
            << "snapshot view";
      }
    }
  }
}

TEST(TraceKeyed, PrefixConditionedRunsStartAtThePrefixTrace) {
  for (const Stack& stack : stack_zoo()) {
    const ParallelSampler sampler = prepared(stack.make);
    const auto view = sampler.worker_view();
    const SchedulerPtr sched = sampler.worker_scheduler();
    TraceInsight trace;
    const PrefixStrata strata = expand_prefix_strata(*view, *sched, trace, 3);
    std::size_t with_external = 0;
    for (std::size_t i = 0; i < strata.live.size() && with_external < 6;
         ++i) {
      const ExecFragment& prefix = strata.live[i].frag;
      if (trace_of(*view, prefix).empty()) continue;
      ++with_external;
      for (const auto& f : insights_for(stack.probe)) {
        SCOPED_TRACE(stack.label + " stratum " + std::to_string(i) + " / " +
                     f->name());
        PerceptionTable table;
        BatchSampler bs(*view, *sched, table, 400, Xoshiro256(23 + i),
                        kDepth, prefix);
        const std::vector<double> dense = run_keyed(bs, *f);
        EXPECT_EQ(as_counts(table, dense), string_counts(bs, *view, *f));
      }
    }
    EXPECT_GT(with_external, 0u) << stack.label;
  }
}

TEST(TraceKeyed, SidesSharingATableGetEqualIdsForEqualPerceptions) {
  const ParallelSampler left = prepared(ledger_factory("pt_sh"));
  const ParallelSampler right = prepared(ledger_static_factory("pt_sh"));
  for (const auto& f : insights_for(act("ack1_pt_sh"))) {
    SCOPED_TRACE(f->name());
    PerceptionTable table;
    std::map<Perception, std::set<PerceptionTable::Id>> ids_of;
    std::set<Perception> seen;
    for (const ParallelSampler* side : {&left, &right}) {
      const auto view = side->worker_view();
      const SchedulerPtr sched = side->worker_scheduler();
      BatchSampler bs(*view, *sched, table, kTrials, Xoshiro256(24), kDepth);
      bs.run_to_completion();
      PerceptionCounts delta;
      bs.take_counts(*f, delta);
      std::vector<double> dense;
      add_counts(dense, delta);
      const Disc<Perception, double> want = string_counts(bs, *view, *f);
      EXPECT_EQ(as_counts(table, dense), want);
      for (const auto& [id, count] : delta) {
        ids_of[table.perception(id)].insert(id);
      }
      for (const auto& [perc, count] : want.entries()) seen.insert(perc);
    }
    EXPECT_EQ(table.size(), seen.size());
    for (const auto& [perc, ids] : ids_of) {
      EXPECT_EQ(ids.size(), 1u) << perc;
    }
  }
}

/// A trace insight that counts its evaluations and the distinct traces
/// it was asked about.
class CountingTrace : public TraceFunction {
 public:
  Perception of_trace(const std::vector<ActionId>& trace) const override {
    ++calls;
    traces.insert(trace);
    return trace_string(trace);
  }
  std::string name() const override { return "counting-trace"; }

  mutable std::size_t calls = 0;
  mutable std::set<std::vector<ActionId>> traces;
};

TEST(TraceKeyed, OneOfTraceCallPerDistinctTraceOverAVerdict) {
  // The plain sequential path shares one table between both sides and
  // across every stage, so a trace seen by several classes, stages or
  // sides is evaluated once. The verdict is the trace insight's.
  const SequentialPolicy policy =
      SequentialPolicy::deciding(0.1, std::size_t{1} << 16, 1e-3);
  ThreadPool pool(2);
  CountingTrace counting;
  const SequentialEpsilon got = sequential_balance_epsilon(
      ledger_factory("pt_cnt"), uniform_factory(kDepth),
      ledger_static_factory("pt_cnt"), uniform_factory(kDepth), counting,
      policy, 5, kDepth, pool);
  EXPECT_GT(got.stages, 1u);
  EXPECT_GT(counting.calls, 1u);
  EXPECT_EQ(counting.calls, counting.traces.size());
  TraceInsight trace;
  const SequentialEpsilon want = sequential_balance_epsilon(
      ledger_factory("pt_cnt"), uniform_factory(kDepth),
      ledger_static_factory("pt_cnt"), uniform_factory(kDepth), trace,
      policy, 5, kDepth, pool);
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.looks, want.looks);
}

TEST(TraceKeyed, StratifiedRunsWithPerRunTablesMatchStringTallies) {
  // stratified_sample_counts steps one run per stratum on the pool, each
  // on its own table; its Discs must equal the string tallies of the
  // same conditioned runs replayed one by one, at every pool size.
  const ParallelSampler sampler = prepared(ledger_factory("pt_st"));
  const auto view = sampler.worker_view();
  const SchedulerPtr sched = sampler.worker_scheduler();
  TraceInsight trace;
  LengthAndLastState generic;
  for (const InsightFunction* f :
       std::vector<const InsightFunction*>{&trace, &generic}) {
    SCOPED_TRACE(f->name());
    const PrefixStrata strata = expand_prefix_strata(*view, *sched, *f, 2);
    ASSERT_GT(strata.live.size(), 1u);
    const std::vector<std::size_t> alloc(strata.live.size(), 300);
    std::vector<Disc<Perception, double>> want;
    for (std::size_t i = 0; i < strata.live.size(); ++i) {
      PerceptionTable table;
      BatchSampler bs(*view, *sched, table, alloc[i],
                      Xoshiro256::for_stream(29, i), kDepth,
                      strata.live[i].frag);
      bs.run_to_completion();
      want.push_back(string_counts(bs, *view, *f));
    }
    for (std::size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      EXPECT_EQ(stratified_sample_counts(sampler, *f, strata, alloc, 29,
                                         kDepth, pool),
                want)
          << workers << " workers";
    }
  }
}

// ------------------------------------------------------------ dense look

void expect_same_decision(const SeqDecision& a, const SeqDecision& b,
                          const std::string& what) {
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.estimate, b.estimate) << what;
  EXPECT_EQ(a.radius, b.radius) << what;
  EXPECT_EQ(a.censor_slack, b.censor_slack) << what;
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.looks, b.looks) << what;
  EXPECT_EQ(a.stages, b.stages) << what;
  EXPECT_EQ(a.draws, b.draws) << what;
}

TEST(DenseLook, MatchesTheDiscLookAcrossSuccessiveLooks) {
  // Random growing tallies over perceptions interned in random order:
  // one-sided cells, singletons, censored looks (live > 0), a right side
  // that stays empty for the first looks of every other pair, and ids
  // the table knows but neither tally counts (not cells). Each pair of
  // estimators sees the same tallies as Discs and as dense vectors, 30
  // looks in a row, so the saturation state carries across.
  const std::vector<SequentialPolicy> policies = {
      SequentialPolicy::fixed(std::size_t{1} << 20),
      SequentialPolicy::deciding(0.05, std::size_t{1} << 20, 1e-3),
      SequentialPolicy::deciding(0.3, std::size_t{1} << 20, 0.05),
      SequentialPolicy::deciding(0.9, std::size_t{1} << 20, 1e-3),
  };
  for (std::size_t p = 0; p < policies.size(); ++p) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      Xoshiro256 rng(1000 * p + seed);
      SeqEstimator by_disc(policies[p]);
      SeqEstimator by_id(policies[p]);
      PerceptionTable table;
      Disc<Perception, double> disc_l, disc_r;
      std::vector<double> dense_l, dense_r;
      double total_l = 0.0, total_r = 0.0;
      const std::size_t empty_right_looks = seed % 2 == 0 ? 5 : 0;
      for (std::size_t look = 1; look <= 30; ++look) {
        if (rng.below(4) == 0) {
          (void)table.intern("uncounted/" + std::to_string(look));
        }
        const std::size_t adds = 1 + rng.below(12);
        for (std::size_t k = 0; k < adds; ++k) {
          const Perception perc =
              "cell/" + std::to_string((rng.below(80) * 7919) % 997);
          const PerceptionTable::Id id = table.intern(perc);
          const double count = static_cast<double>(1 + rng.below(3) / 2);
          const bool left = look <= empty_right_looks || rng.below(2) == 0;
          Disc<Perception, double>& disc = left ? disc_l : disc_r;
          std::vector<double>& dense = left ? dense_l : dense_r;
          disc.add(perc, count);
          if (id >= dense.size()) dense.resize(id + 1, 0.0);
          dense[id] += count;
          (left ? total_l : total_r) += count;
        }
        const auto n = static_cast<std::size_t>(std::max(total_l, total_r)) +
                       rng.below(4);
        const auto live_l = static_cast<std::uint64_t>(n - total_l);
        const auto live_r = static_cast<std::uint64_t>(n - total_r);
        const std::uint64_t draws = 17 * look;
        const SeqDecision a =
            by_disc.look(disc_l, live_l, disc_r, live_r, n, draws);
        const SeqDecision b =
            by_id.look(table, dense_l, live_l, dense_r, live_r, n, draws);
        expect_same_decision(a, b,
                             "policy " + std::to_string(p) + " seed " +
                                 std::to_string(seed) + " look " +
                                 std::to_string(look));
      }
    }
  }
}

TEST(DenseLook, LedgerSeqCellKeepsItsSeededCounts) {
  // The verdict benchmark's ledger_seq cell (dynamic 2-subchain ledger
  // PCA against its static spec, uniform(8), threshold 0.1, budget 2^20)
  // at seeds 1-3. The values were recorded with string-keyed tallies and
  // Disc looks; dense id-keyed tallies must reproduce them bit for bit.
  // The class splits evaluate libm (DESIGN.md §9), so these values hold
  // for this build's libm.
  const PsioaFactory lhs = [] { return make_ledger_system(2, "vbl").dynamic; };
  const PsioaFactory rhs = [] {
    return make_ledger_system(2, "vbl").static_spec;
  };
  const SchedulerFactory sched = [] {
    return std::make_shared<UniformScheduler>(8, false);
  };
  const SequentialPolicy policy =
      SequentialPolicy::deciding(0.1, std::size_t{1} << 20, 1e-3);
  const double estimates[] = {0x1.012cacacacadap-1, 0x1.ff3a3a3a3a3c3p-2,
                              0x1.00a525252525dp-1};
  TraceInsight trace;
  ThreadPool pool(1);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SequentialEpsilon se = sequential_balance_epsilon(
        lhs, sched, rhs, sched, trace, policy, seed, 8, pool);
    EXPECT_EQ(se.verdict, SeqVerdict::kAboveThreshold);
    EXPECT_EQ(se.trials, 261120u);
    EXPECT_EQ(se.draws, 8355840u);
    EXPECT_EQ(se.looks, 60u);
    EXPECT_EQ(se.stages, 8u);
    EXPECT_EQ(se.estimate, estimates[seed - 1]);
  }
}

}  // namespace
}  // namespace cdse
