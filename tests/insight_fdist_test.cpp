// Insight functions, f-dist and balance (sched/insight.hpp,
// impl/balance.hpp; Defs 3.4-3.7).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "impl/balance.hpp"
#include "protocols/coinflip.hpp"
#include "protocols/environment.hpp"
#include "psioa/compose.hpp"
#include "sched/schedulers.hpp"
#include "test_util.hpp"

namespace cdse {
namespace {

using testing::make_bernoulli;
using testing::make_listener;

TEST(Insights, TraceInsightReportsExternalTrace) {
  auto coin = make_coin("ins_a", Rational(1, 2));
  UniformScheduler sched(3);
  TraceInsight f;
  const auto dist = exact_fdist(*coin, sched, f, 10);
  EXPECT_FALSE(dist.mass("flip_ins_a.head_ins_a").is_zero());
  // The internal toss never appears in any perception.
  for (const auto& [perc, w] : dist.entries()) {
    (void)w;
    EXPECT_EQ(perc.find("toss"), std::string::npos) << perc;
  }
}

TEST(Insights, AcceptInsightFlagsDesignatedAction) {
  auto b = make_bernoulli("ins_b", "ins_go_b", "ins_y_b", "ins_n_b",
                          Rational(1, 4));
  UniformScheduler sched(2);
  AcceptInsight f(act("ins_y_b"));
  const auto dist = exact_fdist(*b, sched, f, 10);
  EXPECT_EQ(dist.mass("1"), Rational(1, 4));
  EXPECT_EQ(dist.mass("0"), Rational(3, 4));
}

TEST(Insights, PrintInsightRestrictsToDesignatedSet) {
  auto coin = make_coin("ins_c", Rational(1, 2));
  UniformScheduler sched(3);
  PrintInsight f(acts({"head_ins_c", "tail_ins_c"}));
  const auto dist = exact_fdist(*coin, sched, f, 10);
  // flip is filtered out; only the outcome prints.
  EXPECT_EQ(dist.mass("head_ins_c"), Rational(1, 2));
  EXPECT_EQ(dist.mass("tail_ins_c"), Rational(1, 2));
}

TEST(Balance, CoinsWithSameBiasAreZeroBalanced) {
  auto c1 = make_coin("ins_d1", Rational(1, 3));
  auto c2 = make_coin("ins_d2", Rational(1, 3));
  // Rename-free comparison: drive each alone with equivalent schedulers.
  SequenceScheduler s1({act("flip_ins_d1"), act("toss_ins_d1"),
                        act("head_ins_d1")});
  SequenceScheduler s2({act("flip_ins_d2"), act("toss_ins_d2"),
                        act("head_ins_d2")});
  PrintInsight f1(acts({"head_ins_d1"}));
  // Perceptions must live in one space: print only the head actions and
  // rename mentally -- use accept on head instead for a shared space.
  AcceptInsight fa1(act("head_ins_d1"));
  AcceptInsight fa2(act("head_ins_d2"));
  const auto d1 = exact_fdist(*c1, s1, fa1, 10);
  const auto d2 = exact_fdist(*c2, s2, fa2, 10);
  EXPECT_EQ(balance_distance(d1, d2), Rational(0));
}

TEST(Balance, ExactEpsilonEqualsBiasDifference) {
  // TV between a p-coin and a q-coin observed through accept-on-yes is
  // |p - q|.
  auto b1 = make_bernoulli("ins_e1", "ins_go_e", "ins_y_e", "ins_n_e",
                           Rational(1, 3));
  auto b2 = make_bernoulli("ins_e2", "ins_go_e", "ins_y_e", "ins_n_e",
                           Rational(1, 2));
  UniformScheduler sched(2);
  AcceptInsight f(act("ins_y_e"));
  const Rational eps =
      exact_balance_epsilon(*b1, sched, *b2, sched, f, 10);
  EXPECT_EQ(eps, Rational(1, 6));
  EXPECT_TRUE(balanced(*b1, sched, *b2, sched, f, 10, Rational(1, 6)));
  EXPECT_FALSE(balanced(*b1, sched, *b2, sched, f, 10, Rational(1, 7)));
}

TEST(Balance, StabilityByComposition) {
  // Def 3.7 instance: composing an unrelated context B onto both sides
  // must not increase the environment's distinguishing power when the
  // insight watches E-side actions only.
  auto b1 = make_bernoulli("ins_f1", "ins_go_f", "ins_y_f", "ins_n_f",
                           Rational(1, 4));
  auto b2 = make_bernoulli("ins_f2", "ins_go_f", "ins_y_f", "ins_n_f",
                           Rational(3, 4));
  auto ctx = [] { return make_coin("ins_f_ctx", Rational(1, 2)); };
  UniformScheduler sched(6);
  AcceptInsight f(act("ins_y_f"));
  const Rational base =
      exact_balance_epsilon(*b1, sched, *b2, sched, f, 12);
  auto l = compose(ctx(), b1);
  auto r = compose(ctx(), b2);
  const Rational composed =
      exact_balance_epsilon(*l, sched, *r, sched, f, 12);
  EXPECT_LE(composed, base);
}

TEST(Balance, SampledEpsilonTracksExact) {
  ThreadPool pool(4);
  AcceptInsight f(act("ins_y_g"));
  auto mk1 = [] {
    return make_bernoulli("ins_g1", "ins_go_g", "ins_y_g", "ins_n_g",
                          Rational(1, 4));
  };
  auto mk2 = [] {
    return make_bernoulli("ins_g2", "ins_go_g", "ins_y_g", "ins_n_g",
                          Rational(1, 2));
  };
  auto mks = [] { return std::make_shared<UniformScheduler>(2); };
  const SequentialEpsilon se = sequential_balance_epsilon(
      mk1, mks, mk2, mks, f, SequentialPolicy::fixed(60000), 7, 10, pool);
  EXPECT_NEAR(se.estimate, 0.25, 0.02);
  EXPECT_GT(se.radius, 0.0);
}

// Error contract: when a factory or the insight function throws, the
// sampled epsilon fails as a whole instead of returning an estimate from
// the chunks that survived.

TEST(Balance, SampledEpsilonThrowsWhenAutomatonFactoryThrows) {
  ThreadPool pool(4);
  AcceptInsight f(act("ins_y_t"));
  auto mk = [] {
    return make_bernoulli("ins_t1", "ins_go_t", "ins_y_t", "ins_n_t",
                          Rational(1, 4));
  };
  // A prepared sampler builds its automaton once, so the first call is
  // the only one.
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto flaky = [mk, calls]() -> PsioaPtr {
    if (calls->fetch_add(1) == 0) throw std::runtime_error("factory down");
    return mk();
  };
  auto mks = [] { return std::make_shared<UniformScheduler>(2); };
  EXPECT_THROW(sequential_balance_epsilon(mk, mks, flaky, mks, f,
                                          SequentialPolicy::fixed(4000), 7,
                                          10, pool),
               std::runtime_error);
  EXPECT_EQ(calls->load(), 1);
}

TEST(Balance, SampledEpsilonThrowsWhenSchedulerFactoryThrows) {
  ThreadPool pool(4);
  AcceptInsight f(act("ins_y_u"));
  auto mk = [] {
    return make_bernoulli("ins_u1", "ins_go_u", "ins_y_u", "ins_n_u",
                          Rational(1, 4));
  };
  auto mks = [] { return std::make_shared<UniformScheduler>(2); };
  // The first call warms the prepared sampler; the second builds a
  // chunk's scheduler.
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto flaky = [mks, calls]() -> SchedulerPtr {
    if (calls->fetch_add(1) == 1) throw std::runtime_error("scheduler down");
    return mks();
  };
  EXPECT_THROW(sequential_balance_epsilon(mk, flaky, mk, mks, f,
                                          SequentialPolicy::fixed(4000), 7,
                                          10, pool),
               std::runtime_error);
  EXPECT_GE(calls->load(), 2);
}

/// AcceptInsight that throws on its third call (calls may race: chunks
/// fold on pool workers).
class ThirdCallThrows : public InsightFunction {
 public:
  explicit ThirdCallThrows(ActionId accept) : inner_(accept) {}
  Perception apply(Psioa& automaton,
                   const ExecFragment& alpha) const override {
    if (calls_.fetch_add(1) == 2) throw std::runtime_error("insight down");
    return inner_.apply(automaton, alpha);
  }
  std::string name() const override { return "third-call-throws"; }
  int calls() const { return calls_.load(); }

 private:
  AcceptInsight inner_;
  mutable std::atomic<int> calls_{0};
};

TEST(Balance, SequentialEpsilonThrowsWhenInsightThrows) {
  auto mk1 = [] {
    return make_bernoulli("ins_v1", "ins_go_v", "ins_y_v", "ins_n_v",
                          Rational(1, 4));
  };
  auto mk2 = [] {
    return make_bernoulli("ins_v2", "ins_go_v", "ins_y_v", "ins_n_v",
                          Rational(1, 2));
  };
  auto mks = [] { return std::make_shared<UniformScheduler>(2); };
  const SequentialPolicy fixed = SequentialPolicy::fixed(4000);
  // One worker runs the lone chunk on the calling thread; four run every
  // wave's chunks as pool tasks.
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ThirdCallThrows bad(act("ins_y_v"));
    try {
      (void)sequential_balance_epsilon(mk1, mks, mk2, mks, bad, fixed, 7, 10,
                                       pool);
      ADD_FAILURE() << "a throwing insight produced an epsilon";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "insight down");
    }
    EXPECT_GE(bad.calls(), 3);
    // The pool took the exception back and still serves a clean verdict.
    AcceptInsight good(act("ins_y_v"));
    const SequentialEpsilon se = sequential_balance_epsilon(
        mk1, mks, mk2, mks, good, fixed, 7, 10, pool);
    EXPECT_EQ(se.trials, 4000u);
    EXPECT_NEAR(se.estimate, 0.25, 0.05);
  }
}

TEST(Balance, ProbeEnvironmentDrivesDistinguishing) {
  // Probe env: inject go, watch yes, accept. epsilon(E||A, E||B) == |p-q|.
  auto mk_env = [] {
    return make_probe_env_matching("ins_h_env", {act("ins_go_h")},
                                   acts({"ins_n_h"}), act("ins_y_h"),
                                   act("ins_acc_h"));
  };
  auto b1 = make_bernoulli("ins_h1", "ins_go_h", "ins_y_h", "ins_n_h",
                           Rational(1, 8));
  auto b2 = make_bernoulli("ins_h2", "ins_go_h", "ins_y_h", "ins_n_h",
                           Rational(5, 8));
  auto l = compose(mk_env(), b1);
  auto r = compose(mk_env(), b2);
  // Closed system: schedule locally controlled actions only, so the
  // probe's always-open watch inputs cannot fire as ghost stimuli.
  UniformScheduler sched(8, /*local_only=*/true);
  AcceptInsight f(act("ins_acc_h"));
  const Rational eps = exact_balance_epsilon(*l, sched, *r, sched, f, 10);
  EXPECT_EQ(eps, Rational(1, 2));
}

}  // namespace
}  // namespace cdse
