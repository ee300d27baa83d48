// Shared frozen snapshots: differential equivalence and concurrency suite.
//
// Three engines must be indistinguishable observers of the same system:
//   frozen-shared     -- SnapshotPsioa views over one frozen snapshot
//                        (the ParallelSampler worker engine),
//   per-worker-warmed -- a fresh clone warmed by the identical
//                        deterministic WarmupPlan (the pre-snapshot
//                        clone-per-worker engine),
//   recomputed        -- the same clone after clear_memo(), computing
//                        every row afresh (clearing preserves interning,
//                        so draws stay comparable).
// Exact f-dists must be equal as rationals, and sampled executions must
// be draw-for-draw identical at fixed seeds, across random/composed/
// hidden/renamed/structured/PCA stacks. The concurrency half hammers one
// snapshot's overflow path from 8 workers (run under TSan by the CI
// `tsan` job) and pins seed-reproducibility of ParallelSampler against
// the clone-per-worker paths it replaces.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/pairs.hpp"
#include "protocols/coinflip.hpp"
#include "protocols/environment.hpp"
#include "protocols/ledger.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/memo.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "psioa/snapshot.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

constexpr std::size_t kFdistDepth = 4;
constexpr std::size_t kSampleDepth = 8;
constexpr std::size_t kTrials = 400;

SchedulerFactory uniform_factory(std::size_t depth) {
  return [depth] {
    return std::make_shared<UniformScheduler>(depth, /*local_only=*/true);
  };
}

WarmupPlan full_plan(std::size_t horizon) {
  WarmupPlan plan;
  plan.episodes = 8;
  plan.horizon = horizon;
  return plan;
}

/// Random composed ensemble, regenerated identically per factory call
/// (the factory contract of the parallel sampler).
PsioaFactory composed_factory(int seed, const std::string& tag) {
  return [seed, tag]() -> PsioaPtr {
    Xoshiro256 rng(seed * 7919 + 13);
    RandomPsioaConfig ca;
    ca.n_states = 3;
    ca.n_outputs = 2;
    ca.n_internals = 1;
    RandomPsioaConfig cb = ca;
    cb.input_candidates = acts({"rout0_" + tag + "a", "rout1_" + tag + "a"});
    auto a = make_random_psioa(tag + "_A", tag + "a", ca, rng);
    auto b = make_random_psioa(tag + "_B", tag + "b", cb, rng);
    return compose(PsioaPtr(a), PsioaPtr(b));
  };
}

PsioaFactory hidden_renamed_factory(int seed, const std::string& tag) {
  const PsioaFactory inner = composed_factory(seed, tag);
  return [inner, tag]() -> PsioaPtr {
    const ActionBijection g =
        ActionBijection::with_suffix(acts({"rout0_" + tag + "a"}), "#snap");
    const ActionSet hidden = acts({"rout1_" + tag + "a"});
    return rename_actions(hide_actions(inner(), hidden), g);
  };
}

/// The closed one-time-MAC stack of E7/E10.
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

/// Builds the per-worker-warmed engine: a fresh clone warmed with the
/// same deterministic plan the snapshot was frozen from, so its interned
/// handle order -- and therefore every compiled CDF -- replays the warm
/// instance's exactly.
std::shared_ptr<MemoPsioa> warmed_clone(const PsioaFactory& fa,
                                        const SchedulerFactory& fs,
                                        const WarmupPlan& plan,
                                        std::size_t max_depth) {
  PsioaPtr p = fa();
  auto m = std::dynamic_pointer_cast<MemoPsioa>(p);
  if (m == nullptr) m = memoize(std::move(p));
  SchedulerPtr s = fs();
  warm_automaton(*m, *s, plan, max_depth);
  return m;
}

ExactDisc<Perception> exact_of(Psioa& sys) {
  UniformScheduler sched(kFdistDepth, /*local_only=*/true);
  TraceInsight f;
  return exact_fdist(sys, sched, f, kFdistDepth + 1);
}

Disc<Perception, double> sampled_of(Psioa& sys, std::uint64_t seed) {
  UniformScheduler sched(kSampleDepth, /*local_only=*/true);
  TraceInsight f;
  return sample_fdist(sys, sched, f, kTrials, seed, kSampleDepth);
}

/// Asserts the three engines -- snapshot view, warmed clone, and that
/// clone recomputing after clear_memo() -- agree exactly (rational
/// f-dists) and draw for draw (fixed-seed sampled executions and
/// empirical f-dists).
void expect_engines_agree(const PsioaFactory& fa, std::uint64_t seed) {
  const SchedulerFactory fs = uniform_factory(kSampleDepth);
  const WarmupPlan plan = full_plan(kSampleDepth);

  ParallelSampler sampler(fa, fs);
  sampler.prepare(plan, kSampleDepth);
  auto view = sampler.worker_view();
  auto clone = warmed_clone(fa, fs, plan, kSampleDepth);

  // Exact: order-insensitive, so engines in different handle spaces are
  // directly comparable.
  const auto exact_snap = exact_of(*view);
  const auto exact_warm = exact_of(*clone);
  EXPECT_EQ(exact_snap, exact_warm);

  // Draw-for-draw: identical action words at every fixed seed (state
  // handles live in different spaces, so the comparison is over the
  // global-action alphabet and the reported perceptions).
  TraceInsight f;
  for (int t = 0; t < 12; ++t) {
    SchedulerPtr sv = sampler.worker_scheduler();
    SchedulerPtr sc = fs();
    Xoshiro256 rv(seed + t);
    Xoshiro256 rc(seed + t);
    const ExecFragment av = sample_execution(*view, *sv, rv, kSampleDepth);
    const ExecFragment ac = sample_execution(*clone, *sc, rc, kSampleDepth);
    EXPECT_EQ(av.actions(), ac.actions());
    EXPECT_EQ(f.apply(*view, av), f.apply(*clone, ac));
  }

  // Full sampled f-dists: bitwise-identical doubles.
  const auto sampled_snap = sampled_of(*view, seed);
  const auto sampled_warm = sampled_of(*clone, seed);
  EXPECT_EQ(sampled_snap, sampled_warm);

  // Recompute engine on the same clone: clear_memo() drops every compiled
  // row but keeps interning, so rows recomputed on first use stay in the
  // same handle order and must replay the same draws.
  clone->clear_memo();
  const auto exact_direct = exact_of(*clone);
  EXPECT_EQ(exact_snap, exact_direct);
  clone->clear_memo();
  const auto sampled_direct = sampled_of(*clone, seed);
  EXPECT_EQ(sampled_snap, sampled_direct);
}

class SnapshotEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotEquivalence, ComposedStack) {
  const int n = GetParam();
  expect_engines_agree(composed_factory(n, "sn_a" + std::to_string(n)),
                       3000 + n);
}

TEST_P(SnapshotEquivalence, HiddenRenamedStack) {
  const int n = GetParam();
  expect_engines_agree(hidden_renamed_factory(n, "sn_b" + std::to_string(n)),
                       4000 + n);
}

INSTANTIATE_TEST_SUITE_P(Random, SnapshotEquivalence, ::testing::Range(0, 6));

TEST(SnapshotEquivalenceStacks, StructuredSecureStack) {
  expect_engines_agree(mac_factory("sn_mac"), 42);
}

TEST(SnapshotEquivalenceStacks, PcaLedgerStack) {
  expect_engines_agree(ledger_factory("sn_led"), 7);
}

TEST(SnapshotEquivalenceStacks, RandomLeafThroughMemoView) {
  // A leaf factory: ParallelSampler wraps it in a MemoView; the direct
  // reference is the bare leaf on the historical convert-per-step path.
  const std::string tag = "sn_leaf";
  PsioaFactory fa = [tag]() -> PsioaPtr {
    Xoshiro256 rng(4242);
    RandomPsioaConfig c;
    c.n_states = 4;
    return make_random_psioa(tag + "_L", tag, c, rng);
  };
  const SchedulerFactory fs = uniform_factory(kSampleDepth);
  ParallelSampler sampler(fa, fs);
  sampler.prepare(full_plan(kSampleDepth), kSampleDepth);
  auto view = sampler.worker_view();
  PsioaPtr leaf = fa();

  EXPECT_EQ(exact_of(*view), exact_of(*leaf));
  for (int t = 0; t < 12; ++t) {
    SchedulerPtr sv = fs();
    SchedulerPtr sl = fs();
    Xoshiro256 rv(9000 + t);
    Xoshiro256 rl(9000 + t);
    const ExecFragment av = sample_execution(*view, *sv, rv, kSampleDepth);
    const ExecFragment al = sample_execution(*leaf, *sl, rl, kSampleDepth);
    // Leaf handles are shared by the view (MemoView keeps the inner
    // automaton's state space), so states compare as well.
    EXPECT_EQ(av, al);
  }
  EXPECT_EQ(sampled_of(*view, 77), sampled_of(*leaf, 77));
}

TEST(CompiledSnapshotTest, FreezeCapturesWarmedTables) {
  const PsioaFactory fa = composed_factory(11, "sn_frz");
  auto clone = warmed_clone(fa, uniform_factory(kSampleDepth),
                            full_plan(kSampleDepth), kSampleDepth);
  auto snap = clone->freeze();
  EXPECT_GT(snap->state_count(), 0u);
  EXPECT_GT(snap->row_count(), 0u);
  const State q0 = clone->start_state();
  EXPECT_EQ(snap->start_state(), q0);
  ASSERT_NE(snap->find_signature(q0), nullptr);
  EXPECT_EQ(*snap->find_signature(q0), clone->signature(q0));
  for (ActionId a : clone->enabled(q0)) {
    const CompiledRow* row = snap->find_row(q0, a);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->dist, clone->transition(q0, a));
    EXPECT_EQ(row->cdf, clone->compiled_row(q0, a).cdf);
  }
  EXPECT_EQ(snap->find_signature(State{0xdeadbeefULL}), nullptr);
  EXPECT_EQ(snap->find_row(State{0xdeadbeefULL}, ActionId{0}), nullptr);
}

TEST(CompiledSnapshotTest, SnapshotIsImmutableUnderViewOverflow) {
  // A view faulting cold states must grow its own overflow memo and the
  // residue, never the frozen tables.
  const PsioaFactory fa = composed_factory(12, "sn_imm");
  ParallelSampler sampler(fa, uniform_factory(kSampleDepth));
  WarmupPlan shallow;
  shallow.episodes = 0;
  shallow.horizon = 1;
  sampler.prepare(shallow, kSampleDepth);
  auto snap = sampler.snapshot();
  const std::size_t states_before = snap->state_count();
  const std::size_t rows_before = snap->row_count();
  auto view = sampler.worker_view();
  SchedulerPtr sched = sampler.worker_scheduler();
  Xoshiro256 rng(5);
  for (int t = 0; t < 50; ++t) {
    (void)sample_execution(*view, *sched, rng, kSampleDepth);
  }
  EXPECT_GT(view->snapshot_stats().row_overflows, 0u);
  EXPECT_EQ(snap->state_count(), states_before);
  EXPECT_EQ(snap->row_count(), rows_before);
}

TEST(FrozenChoiceTableTest, AdoptedRowsMatchFreshCompilation) {
  const PsioaFactory fa = composed_factory(13, "sn_chc");
  const SchedulerFactory fs = uniform_factory(kSampleDepth);
  ParallelSampler sampler(fa, fs);
  sampler.prepare(full_plan(kSampleDepth), kSampleDepth);
  auto view = sampler.worker_view();
  SchedulerPtr adopted = sampler.worker_scheduler();
  SchedulerPtr fresh = fs();
  ExecFragment alpha = ExecFragment::starting_at(view->start_state());
  const ChoiceRow* ra = adopted->choice_row(*view, alpha);
  const ChoiceRow* rf = fresh->choice_row(*view, alpha);
  ASSERT_FALSE(ra->empty());
  EXPECT_EQ(ra->actions, rf->actions);
  EXPECT_EQ(ra->cdf, rf->cdf);
  // The adopted row is served from the shared frozen table: a second
  // adopting scheduler returns the very same row object.
  SchedulerPtr adopted2 = sampler.worker_scheduler();
  EXPECT_EQ(ra, adopted2->choice_row(*view, alpha));
}

TEST(FrozenChoiceTableTest, BoundedWrapperForwardsFreezeAndAdopt) {
  const PsioaFactory fa = composed_factory(14, "sn_bnd");
  auto clone = warmed_clone(fa, uniform_factory(kSampleDepth),
                            full_plan(kSampleDepth), kSampleDepth);
  auto inner = std::make_shared<UniformScheduler>(kSampleDepth, true);
  BoundedScheduler bounded(inner, kSampleDepth);
  ExecFragment alpha = ExecFragment::starting_at(clone->start_state());
  (void)bounded.choice_row(*clone, alpha);
  auto table = bounded.freeze_choice_rows();
  ASSERT_NE(table, nullptr);
  EXPECT_FALSE(table->rows.empty());
  auto inner2 = std::make_shared<UniformScheduler>(kSampleDepth, true);
  BoundedScheduler bounded2(inner2, kSampleDepth);
  bounded2.adopt_choice_rows(table);
  const ChoiceRow* row = bounded2.choice_row(*clone, alpha);
  EXPECT_EQ(row, &table->rows.at(clone->start_state()));
}

TEST(SnapshotStatsTest, FullyWarmedSamplingNeverOverflows) {
  ParallelSampler sampler(mac_factory("sn_st1"),
                          uniform_factory(kSampleDepth));
  sampler.prepare(full_plan(kSampleDepth), kSampleDepth);
  ThreadPool pool(4);
  TraceInsight f;
  (void)sampler.sample_fdist(f, 2000, 99, kSampleDepth, pool);
  const SnapshotStats& st = sampler.last_stats();
  EXPECT_GT(st.row_hits, 0u);
  EXPECT_GT(st.sig_hits, 0u);
  EXPECT_EQ(st.row_overflows, 0u);
  EXPECT_EQ(st.sig_overflows, 0u);
  EXPECT_EQ(st.row_misses, 0u);
}

TEST(SnapshotStatsTest, ShallowWarmupOverflowsDeterministically) {
  // With a horizon short of the sampling depth, workers must fault the
  // cold region through the residue -- and two identical runs must agree
  // on every counter and every weight: overflow row compilation orders
  // targets by structural encoding precisely so that racing workers
  // cannot perturb the draw mapping.
  auto run = [](Disc<Perception, double>* dist, SnapshotStats* stats) {
    ParallelSampler sampler(composed_factory(21, "sn_st2"),
                            uniform_factory(kSampleDepth));
    WarmupPlan shallow;
    shallow.episodes = 0;
    shallow.horizon = 2;
    sampler.prepare(shallow, kSampleDepth);
    ThreadPool pool(4);
    TraceInsight f;
    *dist = sampler.sample_fdist(f, 2000, 123, kSampleDepth, pool);
    *stats = sampler.last_stats();
  };
  Disc<Perception, double> d1, d2;
  SnapshotStats s1, s2;
  run(&d1, &s1);
  run(&d2, &s2);
  EXPECT_GT(s1.row_overflows, 0u);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(d1, d2);
}

TEST(SnapshotSeedReproducibility, MatchesCloneParallelPathOnLeafSystem) {
  // Clone-per-worker sampling of a coin (the guarded fan-out under a
  // default guard) must be reproduced exactly -- same chunks, same
  // streams, same draws, same merge -- by the snapshot path.
  const PsioaFactory fa = [] { return make_coin("sn_coin", Rational(1, 3)); };
  const SchedulerFactory fs = [] {
    return std::make_shared<UniformScheduler>(8);
  };
  TraceInsight f;
  ThreadPool pool(4);
  const auto plain = guarded_parallel_sample_fdist(fa, fs, f, 4000, 17, 8,
                                                   pool, SampleGuard{},
                                                   nullptr);
  ParallelSampler sampler(fa, fs);
  sampler.prepare(full_plan(8), 8);
  const auto shared = sampler.sample_fdist(f, 4000, 17, 8, pool);
  EXPECT_EQ(shared, plain);
}

TEST(SnapshotSeedReproducibility, MatchesWarmedClonePerWorkerPath) {
  // The general composed case: the pre-snapshot engine is one warmed
  // clone per worker. Chunk for chunk at the same seeds, the shared
  // snapshot must deliver identical per-worker results.
  const PsioaFactory fa = mac_factory("sn_rep");
  const SchedulerFactory fs = uniform_factory(kSampleDepth);
  const WarmupPlan plan = full_plan(kSampleDepth);
  TraceInsight f;
  const std::size_t trials = 3000;
  const std::uint64_t seed = 29;
  ThreadPool pool(4);

  const std::size_t chunks = pool.size();
  std::vector<Disc<Perception, double>> per_chunk(chunks);
  parallel_for_chunks(
      pool, trials,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto clone = warmed_clone(fa, fs, plan, kSampleDepth);
        SchedulerPtr sched = fs();
        Xoshiro256 rng = Xoshiro256::for_stream(seed, chunk);
        for (std::size_t i = begin; i < end; ++i) {
          const ExecFragment alpha =
              sample_execution(*clone, *sched, rng, kSampleDepth);
          per_chunk[chunk].add(f.apply(*clone, alpha), 1.0);
        }
      });
  Disc<Perception, double> reference;
  for (const auto& p : per_chunk) {
    for (const auto& [perc, count] : p.entries()) {
      reference.add(perc, count / static_cast<double>(trials));
    }
  }

  ParallelSampler sampler(fa, fs);
  sampler.prepare(plan, kSampleDepth);
  const auto shared = sampler.sample_fdist(f, trials, seed, kSampleDepth, pool);
  EXPECT_EQ(shared, reference);
}

TEST(SnapshotConcurrencyStress, EightWorkersHammerOneColdSnapshot) {
  // 8 workers, a deliberately cold snapshot (horizon 1, depth 10), many
  // trials: every worker overflows through the shared residue while
  // others read the frozen tables. Run under TSan by the CI `tsan` job
  // (scripts/check.sh --tsan); here we additionally pin determinism:
  // identical seeds => identical distributions and counter totals, no
  // matter how the workers interleave on the residue lock.
  auto run = [](Disc<Perception, double>* dist, SnapshotStats* stats) {
    ParallelSampler sampler(composed_factory(31, "sn_tsan"),
                            uniform_factory(10));
    WarmupPlan cold;
    cold.episodes = 0;
    cold.horizon = 1;
    sampler.prepare(cold, 10);
    ThreadPool pool(8);
    TraceInsight f;
    *dist = sampler.sample_fdist(f, 4000, 555, 10, pool);
    *stats = sampler.last_stats();
  };
  Disc<Perception, double> d1, d2;
  SnapshotStats s1, s2;
  run(&d1, &s1);
  run(&d2, &s2);
  EXPECT_GT(s1.row_overflows, 0u);
  EXPECT_GT(s1.row_hits, 0u);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(d1, d2);
  EXPECT_TRUE(d1.is_probability());
}

}  // namespace
}  // namespace cdse
