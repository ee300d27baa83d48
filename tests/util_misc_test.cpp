// RNG, thread pool, statistics, polynomial and negligibility helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "util/poly.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace cdse {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Xoshiro256 a2(42);
  EXPECT_NE(a2(), c());
}

TEST(Rng, StreamsAreIndependentOfEachOther) {
  Xoshiro256 s0 = Xoshiro256::for_stream(7, 0);
  Xoshiro256 s1 = Xoshiro256::for_stream(7, 1);
  EXPECT_NE(s0(), s1());
  Xoshiro256 s0b = Xoshiro256::for_stream(7, 0);
  EXPECT_EQ(Xoshiro256::for_stream(7, 0)(), s0b());
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(1);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  parallel_for_chunks(pool, hits.size(),
                      [&](std::size_t, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i)
                          hits[i].fetch_add(1);
                      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_chunks(pool, 0,
                      [&](std::size_t, std::size_t, std::size_t) {
                        called = true;
                      });
  EXPECT_FALSE(called);
}

TEST(Stats, RunningStatMatchesClosedForm) {
  RunningStat rs;
  for (double v : {1.0, 2.0, 3.0, 4.0}) rs.add(v);
  EXPECT_EQ(rs.count(), 4u);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.5);
  EXPECT_NEAR(rs.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, HoeffdingShrinksWithN) {
  EXPECT_GT(hoeffding_radius(100), hoeffding_radius(10000));
  EXPECT_EQ(hoeffding_radius(0), 1.0);
}

TEST(Stats, FitLineRecoversExactLine) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 + 2.0 * x);
  const LinearFit f = fit_line(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Polynomial, EvalAndDegree) {
  const Polynomial p({1, 2, 3});  // 1 + 2k + 3k^2
  EXPECT_DOUBLE_EQ(p.eval(0), 1.0);
  EXPECT_DOUBLE_EQ(p.eval(2), 17.0);
  EXPECT_EQ(p.degree(), 2u);
}

TEST(Polynomial, RejectsNegativeCoefficients) {
  EXPECT_THROW(Polynomial({1.0, -2.0}), std::invalid_argument);
}

TEST(Polynomial, ArithmeticAndScaling) {
  const Polynomial p = Polynomial::monomial(2, 1);  // 2k
  const Polynomial q = Polynomial::constant(3);
  EXPECT_DOUBLE_EQ((p + q).eval(5), 13.0);
  EXPECT_DOUBLE_EQ((p * p).eval(3), 36.0);
  EXPECT_DOUBLE_EQ(p.scaled(4).eval(2), 16.0);
}

TEST(Negligible, AcceptsGeometricDecay) {
  std::vector<std::uint32_t> ks{1, 2, 3, 4, 5, 6};
  std::vector<double> eps;
  for (auto k : ks) eps.push_back(std::pow(2.0, -static_cast<double>(k)));
  EXPECT_TRUE(looks_negligible(ks, eps));
}

TEST(Negligible, RejectsInversePolynomialDecay) {
  std::vector<std::uint32_t> ks{4, 8, 16, 32, 64};
  std::vector<double> eps;
  for (auto k : ks) eps.push_back(1.0 / k);
  EXPECT_FALSE(looks_negligible(ks, eps));
}

TEST(Negligible, AcceptsExactZeroTail) {
  std::vector<std::uint32_t> ks{1, 2, 3};
  std::vector<double> eps{0.0, 0.0, 0.0};
  EXPECT_TRUE(looks_negligible(ks, eps));
}

TEST(Negligible, FittedExponentRecoversTwoPowerDecay) {
  std::vector<std::uint32_t> ks{2, 4, 6, 8, 10};
  std::vector<double> eps;
  for (auto k : ks) eps.push_back(std::pow(2.0, -static_cast<double>(k)));
  EXPECT_NEAR(fitted_decay_exponent(ks, eps), 1.0, 1e-9);
}

}  // namespace
}  // namespace cdse
