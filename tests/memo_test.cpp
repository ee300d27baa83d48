// Memoized transition engine: semantics-neutrality and regression suite.
//
// The memo layer (psioa/memo.hpp) must be invisible to every observer:
// exact f-dists, sampled f-dists at a fixed seed, signatures and
// transition distributions must all be identical whether an instance
// serves them from warm tables or a cold clone computes them, on random
// PSIOA and on composed/hidden/renamed/structured stacks. The regression
// half pins the property that motivated the refactor:
// ComposedPsioa::transition no longer recomputes signature(q) per call,
// and warm caches keep compute counters flat while hit counters grow.

#include <gtest/gtest.h>

#include "crypto/pairs.hpp"
#include "protocols/environment.hpp"
#include "psioa/compose.hpp"
#include "psioa/hide.hpp"
#include "psioa/memo.hpp"
#include "psioa/random.hpp"
#include "psioa/rename.hpp"
#include "reference_engines.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/adversary.hpp"

namespace cdse {
namespace {

using testing::sample_fdist;

constexpr std::size_t kFdistDepth = 4;
constexpr std::size_t kSampleDepth = 8;
constexpr std::size_t kTrials = 400;

/// A compatible pair plus independent clones (regenerated on an identical
/// RNG stream), mirroring the algebra_property_test idiom.
struct Ensemble {
  std::shared_ptr<ExplicitPsioa> a, b;
  std::shared_ptr<ExplicitPsioa> a2, b2;
};

Ensemble make_ensemble(int seed, const std::string& tag) {
  Xoshiro256 rng(seed * 7919 + 13);
  Xoshiro256 rng2(seed * 7919 + 13);
  RandomPsioaConfig ca;
  ca.n_states = 3;
  ca.n_outputs = 2;
  ca.n_internals = 1;
  RandomPsioaConfig cb = ca;
  cb.input_candidates = acts({"rout0_" + tag + "a", "rout1_" + tag + "a"});
  Ensemble e;
  e.a = make_random_psioa(tag + "_A", tag + "a", ca, rng);
  e.b = make_random_psioa(tag + "_B", tag + "b", cb, rng);
  e.a2 = make_random_psioa(tag + "_A2", tag + "a", ca, rng2);
  e.b2 = make_random_psioa(tag + "_B2", tag + "b", cb, rng2);
  return e;
}

/// Exact f-dist of `sys`. A fresh scheduler per call so scheduler-side
/// row caches cannot leak between the two sides of a comparison.
ExactDisc<Perception> exact_side(Psioa& sys) {
  UniformScheduler sched(kFdistDepth, /*local_only=*/true);
  TraceInsight f;
  return exact_fdist(sys, sched, f, kFdistDepth + 1);
}

/// Sampled f-dist at a fixed seed, fresh scheduler per call.
Disc<Perception, double> sampled_side(Psioa& sys, std::uint64_t seed) {
  UniformScheduler sched(kSampleDepth, /*local_only=*/true);
  TraceInsight f;
  return sample_fdist(sys, sched, f, kTrials, seed, kSampleDepth);
}

/// Warms `warm` by a sampling pass at `seed`, which interns and compiles
/// every row that pass visits, in the same order a cold run at `seed`
/// visits them. A cold clone built by `make_cold` then computes every
/// row on first use, yet must produce the same exact f-dist and, at the
/// same seed, the same sampled f-dist as the warm instance serving rows
/// from its memo.
void expect_warm_matches_cold(Psioa& warm, const PsioaFactory& make_cold,
                              std::uint64_t seed, bool exact, bool sampled) {
  const MemoPsioa& memo = dynamic_cast<const MemoPsioa&>(warm);
  (void)sampled_side(warm, seed);
  const std::size_t computed = memo.memo_stats().row_computes;
  if (sampled) {
    // Draw-for-draw reproducibility: the compiled CDF walk replicates the
    // historical to_double() partial-sum walk, so at a fixed seed the two
    // paths produce *identical* empirical distributions, not just close.
    const auto warm_sampled = sampled_side(warm, seed);
    EXPECT_EQ(memo.memo_stats().row_computes, computed);  // all rows warm
    EXPECT_EQ(warm_sampled, sampled_side(*make_cold(), seed));
  }
  if (exact) {
    EXPECT_EQ(exact_side(warm), exact_side(*make_cold()));
  }
}

class MemoEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MemoEquivalence, ComposedExactFdistUnchangedByMemoToggle) {
  const std::string tag = "me_a" + std::to_string(GetParam());
  const Ensemble e = make_ensemble(GetParam(), tag);
  auto sys = compose(PsioaPtr(e.a), PsioaPtr(e.b));
  expect_warm_matches_cold(
      *sys, [&e] { return compose(PsioaPtr(e.a2), PsioaPtr(e.b2)); },
      500 + GetParam(), /*exact=*/true, /*sampled=*/false);
}

TEST_P(MemoEquivalence, ComposedSampledFdistUnchangedByMemoToggle) {
  const std::string tag = "me_b" + std::to_string(GetParam());
  const Ensemble e = make_ensemble(GetParam(), tag);
  auto sys = compose(PsioaPtr(e.a), PsioaPtr(e.b));
  expect_warm_matches_cold(
      *sys, [&e] { return compose(PsioaPtr(e.a2), PsioaPtr(e.b2)); },
      1000 + GetParam(), /*exact=*/false, /*sampled=*/true);
}

TEST_P(MemoEquivalence, HiddenRenamedStackUnchangedByMemoToggle) {
  const std::string tag = "me_c" + std::to_string(GetParam());
  const Ensemble e = make_ensemble(GetParam(), tag);
  const ActionBijection g = ActionBijection::with_suffix(
      acts({"rout0_" + tag + "a"}), "#memo");
  const ActionSet hidden = acts({"rout1_" + tag + "a"});
  auto stack = [&](const std::shared_ptr<ExplicitPsioa>& a,
                   const std::shared_ptr<ExplicitPsioa>& b) {
    return rename_actions(hide_actions(compose(PsioaPtr(a), PsioaPtr(b)),
                                       hidden),
                          g);
  };
  auto sys = stack(e.a, e.b);
  expect_warm_matches_cold(
      *sys, [&] { return stack(e.a2, e.b2); }, 2000 + GetParam(),
      /*exact=*/true, /*sampled=*/true);
}

TEST_P(MemoEquivalence, MemoViewMatchesDirectLeaf) {
  // memoize() wraps a leaf automaton sharing its state handles; the view
  // must agree with an independent direct clone on signatures,
  // transitions, and the exact f-dist.
  const std::string tag = "me_d" + std::to_string(GetParam());
  const Ensemble e = make_ensemble(GetParam(), tag);
  auto view = memoize(PsioaPtr(e.a));
  const State q0 = view->start_state();
  EXPECT_EQ(q0, e.a2->start_state());
  EXPECT_EQ(view->signature(q0), e.a2->signature(q0));
  for (ActionId a : view->enabled(q0)) {
    EXPECT_EQ(view->transition(q0, a), e.a2->transition(q0, a));
  }
  UniformScheduler sv(kFdistDepth, true);
  UniformScheduler sd(kFdistDepth, true);
  TraceInsight f;
  const auto dv = exact_fdist(*view, sv, f, kFdistDepth + 1);
  const auto dd = exact_fdist(*e.a2, sd, f, kFdistDepth + 1);
  EXPECT_EQ(balance_distance(dv, dd), Rational(0));
}

INSTANTIATE_TEST_SUITE_P(Random, MemoEquivalence, ::testing::Range(0, 8));

TEST(MemoEquivalence, StructuredSecureStackUnchangedByMemoToggle) {
  // The structured real/ideal stacks of the secure-emulation experiments
  // are built from compose/hide wrappers, so the whole stack rides the
  // memo base; serving rows from warm tables must not move a single
  // weight.
  const std::string tag = "me_sec";
  auto stack = [&tag] {
    const RealIdealPair mac = make_otmac_pair(4, tag);
    auto env = make_probe_env_matching(
        "env_" + tag, {act("auth_" + tag)}, acts({"rejected_" + tag}),
        act("forged_" + tag), act("acc_" + tag));
    auto adv = make_sink_adversary("adv_" + tag, {}, acts({"forge_" + tag}));
    return compose(env, compose(mac.real.ptr(), adv));
  };
  auto sys = stack();
  expect_warm_matches_cold(*sys, stack, 42, /*exact=*/true,
                           /*sampled=*/true);
}

class MemoRegression : public ::testing::Test {
 protected:
  std::shared_ptr<ComposedPsioa> make_system(const std::string& tag) {
    const Ensemble e = make_ensemble(7, tag);
    return compose(PsioaPtr(e.a), PsioaPtr(e.b));
  }
};

TEST_F(MemoRegression, ComposedTransitionDoesNotRecomputeSignature) {
  // The motivating regression: transition(q, a) used to re-derive the
  // composed signature(q) on every call to enforce compatibility. With
  // the memo base it resolves the cached signature, so repeated
  // transitions at a warm state add zero sig/row computes.
  auto sys = make_system("mr_a");
  const State q0 = sys->start_state();
  const ActionSet en = sys->enabled(q0);
  ASSERT_FALSE(en.empty());
  const ActionId a0 = en.front();
  (void)sys->transition(q0, a0);  // warm
  const MemoStats warm = sys->memo_stats();
  for (int i = 0; i < 25; ++i) (void)sys->transition(q0, a0);
  const MemoStats after = sys->memo_stats();
  EXPECT_EQ(after.sig_computes, warm.sig_computes);
  EXPECT_EQ(after.row_computes, warm.row_computes);
  EXPECT_GE(after.row_hits, warm.row_hits + 25);
}

TEST_F(MemoRegression, SignatureComputedOncePerState) {
  auto sys = make_system("mr_b");
  const State q0 = sys->start_state();
  (void)sys->signature(q0);
  const MemoStats warm = sys->memo_stats();
  EXPECT_GE(warm.sig_computes, 1u);
  for (int i = 0; i < 10; ++i) (void)sys->signature(q0);
  const MemoStats after = sys->memo_stats();
  EXPECT_EQ(after.sig_computes, warm.sig_computes);
  EXPECT_GE(after.sig_hits, warm.sig_hits + 10);
}

TEST_F(MemoRegression, ClearMemoRecomputesOnce) {
  auto sys = make_system("mr_d");
  const State q0 = sys->start_state();
  const ActionId a0 = sys->enabled(q0).front();
  (void)sys->transition(q0, a0);
  const MemoStats warm = sys->memo_stats();
  sys->clear_memo();
  (void)sys->transition(q0, a0);
  const MemoStats after = sys->memo_stats();
  EXPECT_EQ(after.row_computes, warm.row_computes + 1);
}

TEST(CompiledRowTest, CdfMatchesExactPartialSums) {
  const Ensemble e = make_ensemble(3, "cr_a");
  auto sys = compose(PsioaPtr(e.a), PsioaPtr(e.b));
  const State q0 = sys->start_state();
  for (ActionId a : sys->enabled(q0)) {
    const CompiledRow& row = sys->compiled_row(q0, a);
    const StateDist eta = sys->transition(q0, a);
    EXPECT_EQ(row.dist, eta);
    ASSERT_EQ(row.targets.size(), eta.entries().size());
    double acc = 0.0;
    for (std::size_t i = 0; i < eta.entries().size(); ++i) {
      EXPECT_EQ(row.targets[i], eta.entries()[i].first);
      acc += eta.entries()[i].second.to_double();
      EXPECT_DOUBLE_EQ(row.cdf[i], acc);
    }
  }
}

TEST(CompiledRowTest, SampleBoundaryBehaviour) {
  StateDist d;
  d.add(State{11}, Rational(1, 4));
  d.add(State{22}, Rational(1, 4));
  d.add(State{33}, Rational(1, 2));
  const CompiledRow row = CompiledRow::compile(d);
  EXPECT_EQ(row.sample(0.0), row.targets.front());
  EXPECT_EQ(row.sample(0.2499), row.targets[0]);
  EXPECT_EQ(row.sample(0.25), row.targets[1]);
  EXPECT_EQ(row.sample(0.4999), row.targets[1]);
  EXPECT_EQ(row.sample(0.5), row.targets[2]);
  // Round-off shortfall at u ~ 1 is absorbed by the final target.
  EXPECT_EQ(row.sample(1.0), row.targets.back());
}

TEST(ChoiceRowTest, CompileMatchesChooseAndHaltMass) {
  // A half-total choice leaves halting mass: sample must return
  // kInvalidAction exactly on the residual.
  ActionChoice c;
  const ActionId x = act("chr_x");
  const ActionId y = act("chr_y");
  c.add(x, Rational(1, 4));
  c.add(y, Rational(1, 4));
  const ChoiceRow row = ChoiceRow::compile(c);
  ASSERT_EQ(row.actions.size(), 2u);
  EXPECT_DOUBLE_EQ(row.cdf.back(), 0.5);
  EXPECT_EQ(row.sample(0.1), row.actions[0]);
  EXPECT_EQ(row.sample(0.3), row.actions[1]);
  EXPECT_EQ(row.sample(0.75), kInvalidAction);
}

TEST(ChoiceRowTest, UniformSchedulerRowMatchesChooseAndIsCached) {
  const Ensemble e = make_ensemble(5, "chr_a");
  auto sys = compose(PsioaPtr(e.a), PsioaPtr(e.b));
  UniformScheduler sched(6, true);
  ExecFragment alpha = ExecFragment::starting_at(sys->start_state());
  const ChoiceRow* row1 = sched.choice_row(*sys, alpha);
  const ChoiceRow expected = ChoiceRow::compile(sched.choose(*sys, alpha));
  ASSERT_EQ(row1->actions, expected.actions);
  ASSERT_EQ(row1->cdf.size(), expected.cdf.size());
  for (std::size_t i = 0; i < expected.cdf.size(); ++i) {
    EXPECT_DOUBLE_EQ(row1->cdf[i], expected.cdf[i]);
  }
  // Per-state memo: the same (automaton, state) yields the same row
  // object, not a recompiled copy.
  const ChoiceRow* row2 = sched.choice_row(*sys, alpha);
  EXPECT_EQ(row1, row2);
}

TEST(ChoiceRowTest, StateChoiceCacheClearsOnAutomatonChange) {
  // A scheduler reused across automata must not serve rows warmed
  // against a different instance.
  const Ensemble e = make_ensemble(6, "chr_b");
  auto left = compose(PsioaPtr(e.a), PsioaPtr(e.b));
  auto right = compose(PsioaPtr(e.a2), PsioaPtr(e.b2));
  UniformScheduler sched(6, true);
  ExecFragment la = ExecFragment::starting_at(left->start_state());
  ExecFragment ra = ExecFragment::starting_at(right->start_state());
  (void)sched.choice_row(*left, la);
  const ChoiceRow* rr = sched.choice_row(*right, ra);
  const ChoiceRow expected = ChoiceRow::compile(sched.choose(*right, ra));
  EXPECT_EQ(rr->actions, expected.actions);
}

TEST(ChoiceRowTest, DepthBoundYieldsEmptyRow) {
  const Ensemble e = make_ensemble(4, "chr_c");
  auto sys = compose(PsioaPtr(e.a), PsioaPtr(e.b));
  UniformScheduler sched(0, true);  // bound 0: halts immediately
  ExecFragment alpha = ExecFragment::starting_at(sys->start_state());
  const ChoiceRow* row = sched.choice_row(*sys, alpha);
  EXPECT_TRUE(row->empty());
}

}  // namespace
}  // namespace cdse
