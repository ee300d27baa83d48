// Edge cases and error paths across the public API surface.

#include <gtest/gtest.h>

#include "crypto/service.hpp"
#include "impl/implementation.hpp"
#include "pca/dynamic_pca.hpp"
#include "pca/pca_compose.hpp"
#include "pca/pca_hide.hpp"
#include "protocols/coinflip.hpp"
#include "psioa/compose.hpp"
#include "psioa/random.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "secure/emulation.hpp"
#include "test_util.hpp"

namespace cdse {
namespace {

using testing::make_bernoulli;
using testing::make_emitter;
using testing::make_listener;

TEST(EdgeCases, ActionTableUnknownIdThrows) {
  EXPECT_THROW(ActionTable::instance().name(0xfffffff0u),
               std::out_of_range);
  EXPECT_EQ(ActionTable::instance().lookup("never_interned_xyz"),
            kInvalidAction);
}

TEST(EdgeCases, ActsDeduplicates) {
  const ActionSet s = acts({"ec_a", "ec_a", "ec_b"});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(set::is_sorted_set(s));
}

TEST(EdgeCases, ToStringRendersActionSets) {
  const ActionSet s = acts({"ec_x", "ec_y"});
  const std::string rendered = to_string(s);
  EXPECT_NE(rendered.find("ec_x"), std::string::npos);
  EXPECT_NE(rendered.find("ec_y"), std::string::npos);
  EXPECT_EQ(to_string(ActionSet{}), "{}");
}

TEST(EdgeCases, TransitionOnUndeclaredStateThrows) {
  auto coin = make_coin("ec_c", Rational(1, 2));
  EXPECT_THROW(coin->signature(9999), std::out_of_range);
  EXPECT_THROW(coin->transition(9999, act("flip_ec_c")),
               std::out_of_range);
}

TEST(EdgeCases, ComposedTransitionOnDisabledActionThrows) {
  auto c = compose(make_emitter("ec_d1", "ec_d_m"),
                   make_listener("ec_d2", "ec_d_m"));
  EXPECT_THROW(c->transition(c->start_state(), act("ec_d_unknown")),
               std::logic_error);
}

TEST(EdgeCases, SamplerOnHaltedSchedulerReturnsStartOnly) {
  auto coin = make_coin("ec_e", Rational(1, 2));
  SequenceScheduler empty_word(std::vector<ActionId>{});
  Xoshiro256 rng(1);
  const ExecFragment alpha =
      sample_execution(*memoize(coin), empty_word, rng, 10);
  EXPECT_EQ(alpha.length(), 0u);
  EXPECT_EQ(alpha.fstate(), coin->start_state());
}

TEST(EdgeCases, ExactFdistAtDepthZeroIsDiracOnEmptyPerception) {
  auto coin = make_coin("ec_f", Rational(1, 2));
  UniformScheduler sched(10);
  TraceInsight f;
  const auto dist = exact_fdist(*coin, sched, f, 0);
  EXPECT_EQ(dist.mass(""), Rational(1));
}

TEST(EdgeCases, DynamicPcaCreationOfUnknownAidThrows) {
  auto reg = std::make_shared<AutomatonRegistry>();
  const Aid em = reg->add(make_emitter("ec_g_em", "ec_g_m"));
  CreationPolicy bad = [](const Configuration&, ActionId) {
    return std::vector<Aid>{42};  // not registered
  };
  DynamicPca x("ec_g", reg, {em}, bad, no_hiding());
  EXPECT_THROW(x.transition(x.start_state(), act("ec_g_m")),
               std::out_of_range);
}

TEST(EdgeCases, EmptyCompositionListsRejected) {
  EXPECT_THROW(compose_pca(std::vector<PcaPtr>{}), std::invalid_argument);
  EXPECT_THROW(compose_structured(std::vector<StructuredPsioa>{}),
               std::invalid_argument);
}

TEST(EdgeCases, MacServiceWithNoSessionsRejected) {
  // A session-less hub would carry an empty signature -- the destruction
  // sentinel -- so the degenerate configuration is rejected up front.
  EXPECT_THROW(make_mac_service_pair({}, "ec_h"), std::invalid_argument);
}

TEST(EdgeCases, ImplementationReportEmptyInputs) {
  auto a = make_bernoulli("ec_i1", "ec_i_go", "ec_i_y", "ec_i_n",
                          Rational(1, 2));
  auto b = make_bernoulli("ec_i2", "ec_i_go", "ec_i_y", "ec_i_n",
                          Rational(1, 2));
  const auto report =
      check_implementation(a, b, {}, {}, same_scheduler(),
                           TraceInsight(), 8);
  EXPECT_TRUE(report.rows.empty());
  EXPECT_EQ(report.max_eps, Rational(0));
}

TEST(EdgeCases, RandomPsioaIsAlwaysValid) {
  for (int seed = 0; seed < 20; ++seed) {
    Xoshiro256 rng(seed);
    RandomPsioaConfig cfg;
    cfg.n_states = 1 + seed % 5;
    cfg.n_outputs = seed % 3;
    cfg.n_internals = seed % 2;
    cfg.input_candidates = acts({"ec_j_in1", "ec_j_in2"});
    // validate() runs inside the generator; reaching here means the
    // instance satisfies Def 2.1. Spot-check transition totals.
    auto a = make_random_psioa("ec_j_" + std::to_string(seed), "ec_j",
                               cfg, rng);
    const State q0 = a->start_state();
    for (ActionId act_id : a->enabled(q0)) {
      EXPECT_TRUE(a->transition(q0, act_id).is_probability());
    }
  }
}

TEST(EdgeCases, UniformSchedulerOnEmptySignatureHalts) {
  auto em = make_emitter("ec_k", "ec_k_m");
  UniformScheduler sched(10);
  ExecFragment alpha(em->start_state());
  alpha.append(act("ec_k_m"),
               em->transition(em->start_state(), act("ec_k_m"))
                   .support()[0]);
  EXPECT_TRUE(sched.choose(*em, alpha).empty());  // spent: empty sig
}

TEST(EdgeCases, BalanceOfEmptyDistsIsZero) {
  ExactDisc<Perception> empty1, empty2;
  EXPECT_EQ(balance_distance(empty1, empty2), Rational(0));
  ExactDisc<Perception> one = ExactDisc<Perception>::dirac("x");
  EXPECT_EQ(balance_distance(one, empty1), Rational(1));
}

TEST(EdgeCases, RegistryRejectsNull) {
  AutomatonRegistry reg;
  EXPECT_THROW(reg.add(nullptr), std::invalid_argument);
}

TEST(EdgeCases, HiddenPcaOnlyHidesOutputs) {
  auto reg = std::make_shared<AutomatonRegistry>();
  const Aid li = reg->add(make_listener("ec_l_li", "ec_l_m"));
  auto x = std::make_shared<DynamicPca>("ec_l", reg, std::vector<Aid>{li});
  PcaPtr h = hide_pca(x, acts({"ec_l_m"}));  // it is an input: no-op
  EXPECT_TRUE(h->signature(h->start_state()).is_input(act("ec_l_m")));
  EXPECT_TRUE(h->hidden_actions(h->start_state()).empty());
}

}  // namespace
}  // namespace cdse
