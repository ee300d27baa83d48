// Exact cone measure vs Monte-Carlo sampling
// (sched/cone_measure.hpp, sched/sampler.hpp; Section 3).

#include <gtest/gtest.h>

#include "protocols/coinflip.hpp"
#include "sched/cone_measure.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "stat_util.hpp"
#include "test_util.hpp"

namespace cdse {
namespace {

using testing::make_bernoulli;

TEST(ConeMeasure, TotalMassIsOne) {
  auto coin = make_coin("cm_a", Rational(1, 3));
  UniformScheduler sched(4);
  Rational total;
  for_each_halted_execution(*coin, sched, 10,
                            [&](const ExecFragment&, const Rational& p) {
                              total += p;
                            });
  EXPECT_EQ(total, Rational(1));
}

TEST(ConeMeasure, CoinOutcomeProbabilitiesExact) {
  auto coin = make_coin("cm_b", Rational(1, 3));
  // Drive exactly one flip-toss-report cycle.
  SequenceScheduler sched({act("flip_cm_b"), act("toss_cm_b"),
                           act("head_cm_b")});
  // P[head emitted] = 1/3 (the head branch reaches the third letter; the
  // tail branch halts because "head" is not enabled).
  EXPECT_EQ(exact_action_probability(*coin, sched, act("head_cm_b"), 10),
            Rational(1, 3));
  EXPECT_EQ(exact_action_probability(*coin, sched, act("tail_cm_b"), 10),
            Rational(0));
}

TEST(ConeMeasure, FdistOverTraces) {
  auto coin = make_coin("cm_c", Rational(1, 4));
  UniformScheduler sched(3);  // flip, toss, report
  TraceInsight f;
  const auto dist = exact_fdist(*coin, sched, f, 10);
  // Two perceptions: flip.head / flip.tail (toss is internal).
  EXPECT_EQ(dist.mass("flip_cm_c.head_cm_c"), Rational(1, 4));
  EXPECT_EQ(dist.mass("flip_cm_c.tail_cm_c"), Rational(3, 4));
  EXPECT_EQ(dist.total(), Rational(1));
}

TEST(ConeMeasure, SchedulerHaltMassAppearsAsShortPerceptions) {
  auto coin = make_coin("cm_d", Rational(1, 2));
  // Scheduler that halts with probability 1/2 at every step.
  class Halting : public Scheduler {
   public:
    ActionChoice choose(Psioa& a, const ExecFragment& alpha) override {
      ActionChoice c;
      const ActionSet en = a.enabled(alpha.lstate());
      if (!en.empty() && alpha.length() < 2) {
        c.add(en.front(), Rational(1, 2));
      }
      return c;
    }
    std::string name() const override { return "halting"; }
  } sched;
  TraceInsight f;
  const auto dist = exact_fdist(*coin, sched, f, 10);
  EXPECT_EQ(dist.mass(""), Rational(1, 2));            // halted immediately
  EXPECT_EQ(dist.mass("flip_cm_d"), Rational(1, 2));   // halted after flip
  EXPECT_EQ(dist.total(), Rational(1));
}

TEST(ConeMeasure, DepthCapTruncatesDeterministically) {
  auto coin = make_coin("cm_e", Rational(1, 2));
  UniformScheduler sched(100);
  TraceInsight f;
  const auto d1 = exact_fdist(*coin, sched, f, 1);
  EXPECT_EQ(d1.mass("flip_cm_e"), Rational(1));
}

TEST(Sampler, SampleExecutionRespectsScheduler) {
  auto coin = make_coin("cm_f", Rational(1, 2));
  SequenceScheduler sched({act("flip_cm_f"), act("toss_cm_f")});
  Xoshiro256 rng(3);
  const ExecFragment alpha = sample_execution(*coin, sched, rng, 10);
  EXPECT_EQ(alpha.length(), 2u);
  EXPECT_EQ(alpha.actions()[0], act("flip_cm_f"));
}

TEST(Sampler, SerialEstimateConvergesToExact) {
  auto coin = make_coin("cm_g", Rational(1, 4));
  UniformScheduler sched(3);
  TraceInsight f;
  const auto exact = exact_fdist(*coin, sched, f, 10);
  const auto sampled = sample_fdist(*coin, sched, f, 40000, 17, 10);
  EXPECT_TRUE(testing::fdist_matches_exact(exact, sampled, 40000));
}

TEST(Sampler, ParallelEstimateMatchesExactAndIsSeedDeterministic) {
  ThreadPool pool(4);
  TraceInsight f;
  auto make_aut = [] {
    return make_coin("cm_h", Rational(1, 4));
  };
  auto make_sched = [] {
    return std::make_shared<UniformScheduler>(3);
  };
  const auto s1 = guarded_parallel_sample_fdist(
      make_aut, make_sched, f, 40000, 99, 10, pool, SampleGuard{}, nullptr);
  const auto s2 = guarded_parallel_sample_fdist(
      make_aut, make_sched, f, 40000, 99, 10, pool, SampleGuard{}, nullptr);
  EXPECT_EQ(s1.entries().size(), s2.entries().size());
  for (std::size_t i = 0; i < s1.entries().size(); ++i) {
    EXPECT_EQ(s1.entries()[i].first, s2.entries()[i].first);
    EXPECT_DOUBLE_EQ(s1.entries()[i].second, s2.entries()[i].second);
  }
  auto coin = make_aut();
  UniformScheduler sched(3);
  const auto exact = exact_fdist(*coin, sched, f, 10);
  EXPECT_TRUE(testing::fdist_matches_exact(exact, s1, 40000));
}

TEST(Sampler, BernoulliFrequenciesMatchParameter) {
  auto b = make_bernoulli("cm_i", "cm_go_i", "cm_y_i", "cm_n_i",
                          Rational(1, 8));
  UniformScheduler sched(2);
  AcceptInsight f(act("cm_y_i"));
  const auto sampled = sample_fdist(*b, sched, f, 60000, 5, 10);
  EXPECT_NEAR(sampled.mass("1"), 0.125, 0.01);
}

}  // namespace
}  // namespace cdse
