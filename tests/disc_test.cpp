// Discrete measures, products and the balance/TV distance
// (measure/disc.hpp; paper Section 2.1 and Def 3.6).

#include "measure/disc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cdse {
namespace {

TEST(Disc, DiracHasUnitMassOnPoint) {
  const auto d = Disc<int>::dirac(7);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.mass(7), 1.0);
  EXPECT_DOUBLE_EQ(d.mass(8), 0.0);
  EXPECT_TRUE(d.is_probability());
}

TEST(Disc, AddMergesMassAndDropsZeros) {
  Disc<int> d;
  d.add(1, 0.25);
  d.add(1, 0.25);
  d.add(2, 0.0);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.mass(1), 0.5);
}

TEST(Disc, ExactCancellationRemovesPoint) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 3));
  d.add(1, Rational(-1, 3));
  EXPECT_TRUE(d.empty());
}

TEST(Disc, SupportIsSorted) {
  Disc<int> d;
  d.add(5, 0.2);
  d.add(1, 0.3);
  d.add(3, 0.5);
  EXPECT_EQ(d.support(), (std::vector<int>{1, 3, 5}));
}

TEST(Disc, TotalAndIsProbability) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 3));
  d.add(2, Rational(2, 3));
  EXPECT_EQ(d.total(), Rational(1));
  EXPECT_TRUE(d.is_probability());
  d.add(3, Rational(1, 10));
  EXPECT_FALSE(d.is_probability());
}

TEST(Disc, MapPushesForwardAndMergesFibers) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 4));
  d.add(2, Rational(1, 4));
  d.add(3, Rational(1, 2));
  const auto even = d.map<bool>([](int x) { return x % 2 == 0; });
  EXPECT_EQ(even.mass(false), Rational(3, 4));
  EXPECT_EQ(even.mass(true), Rational(1, 4));
}

TEST(Disc, ProductIsProductMeasure) {
  ExactDisc<int> a;
  a.add(0, Rational(1, 2));
  a.add(1, Rational(1, 2));
  ExactDisc<int> b;
  b.add(0, Rational(1, 3));
  b.add(1, Rational(2, 3));
  const auto prod = ExactDisc<std::pair<int, int>>::product(
      a, b, [](int x, int y) { return std::make_pair(x, y); });
  EXPECT_EQ(prod.mass({0, 0}), Rational(1, 6));
  EXPECT_EQ(prod.mass({1, 1}), Rational(1, 3));
  EXPECT_EQ(prod.total(), Rational(1));
}

TEST(Disc, ScaledAndNormalized) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 2));
  d.add(2, Rational(1, 4));
  const auto s = d.scaled(Rational(2));
  EXPECT_EQ(s.mass(1), Rational(1));
  const auto n = d.normalized();
  EXPECT_EQ(n.mass(1), Rational(2, 3));
  EXPECT_TRUE(n.is_probability());
  ExactDisc<int> empty;
  EXPECT_THROW(empty.normalized(), std::domain_error);
}

TEST(Disc, SampleHitsSupportProportionally) {
  Disc<int> d;
  d.add(1, 0.25);
  d.add(2, 0.75);
  Xoshiro256 rng(11);
  int twos = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng.uniform()) == 2) ++twos;
  }
  EXPECT_NEAR(static_cast<double>(twos) / n, 0.75, 0.02);
}

TEST(BalanceDistance, ZeroOnEqualMeasures) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 2));
  d.add(2, Rational(1, 2));
  EXPECT_EQ(balance_distance(d, d), Rational(0));
}

TEST(BalanceDistance, KnownValue) {
  ExactDisc<int> mu;
  mu.add(1, Rational(1, 2));
  mu.add(2, Rational(1, 2));
  ExactDisc<int> nu;
  nu.add(1, Rational(1, 4));
  nu.add(2, Rational(1, 4));
  nu.add(3, Rational(1, 2));
  // Positive part: 1/4 + 1/4; negative part: 1/2 -> distance 1/2.
  EXPECT_EQ(balance_distance(mu, nu), Rational(1, 2));
}

TEST(BalanceDistance, DisjointSupportsIsOne) {
  ExactDisc<int> mu = ExactDisc<int>::dirac(1);
  ExactDisc<int> nu = ExactDisc<int>::dirac(2);
  EXPECT_EQ(balance_distance(mu, nu), Rational(1));
}

TEST(BalanceDistance, SubProbabilityAsymmetricMass) {
  // Halting mass shows up as a one-sided difference.
  ExactDisc<int> mu;
  mu.add(1, Rational(1, 2));  // halts with prob 1/2
  ExactDisc<int> nu = ExactDisc<int>::dirac(1);
  EXPECT_EQ(balance_distance(mu, nu), Rational(1, 2));
}

TEST(ToDouble, ConvertsExactMeasure) {
  ExactDisc<int> d;
  d.add(1, Rational(1, 4));
  d.add(2, Rational(3, 4));
  const auto dd = to_double(d);
  EXPECT_DOUBLE_EQ(dd.mass(1), 0.25);
  EXPECT_DOUBLE_EQ(dd.mass(2), 0.75);
}

// Metric-style properties of balance distance on random exact measures.
class BalanceLaws : public ::testing::TestWithParam<int> {
 protected:
  ExactDisc<int> random_prob(Xoshiro256& rng) {
    // Random dyadic probability over {0..5}: split 16 atoms of mass 1/16.
    ExactDisc<int> d;
    for (int atom = 0; atom < 16; ++atom) {
      d.add(static_cast<int>(rng.below(6)), Rational(1, 16));
    }
    return d;
  }
};

TEST_P(BalanceLaws, MetricAxiomsAndDataProcessing) {
  Xoshiro256 rng(GetParam() * 313 + 1);
  const auto a = random_prob(rng);
  const auto b = random_prob(rng);
  const auto c = random_prob(rng);
  // Symmetry, identity, triangle.
  EXPECT_EQ(balance_distance(a, b), balance_distance(b, a));
  EXPECT_EQ(balance_distance(a, a), Rational(0));
  EXPECT_LE(balance_distance(a, c),
            balance_distance(a, b) + balance_distance(b, c));
  // Bounded by 1 for probability measures.
  EXPECT_LE(balance_distance(a, b), Rational(1));
  // Data processing: any push-forward cannot increase the distance
  // (the insight-function stability property relies on this).
  auto coarse = [](int x) { return x / 2; };
  EXPECT_LE(balance_distance(a.map<int>(coarse), b.map<int>(coarse)),
            balance_distance(a, b));
}

INSTANTIATE_TEST_SUITE_P(Random, BalanceLaws, ::testing::Range(0, 30));

// -- bulk folds: Disc::merge against Disc::add ------------------------------
//
// Keys are longer than libstdc++'s 15-character short-string buffer, so a
// merge that moved an entry onto itself would empty its key.

std::string long_key(std::size_t i) {
  return "perception/" + std::string(20, 'a' + static_cast<char>(i % 26)) +
         "/" + std::to_string(1000 + i);
}

double draw_weight(Xoshiro256& rng, double) {
  return static_cast<double>(1 + rng.below(1000)) / 64.0;
}
Rational draw_weight(Xoshiro256& rng, const Rational&) {
  // Signed, so shared keys can cancel to zero.
  const auto num = static_cast<std::int64_t>(rng.below(7)) - 3;
  return Rational(num == 0 ? 1 : num, static_cast<std::int64_t>(1 + rng.below(4)));
}

/// A measure over long_key(i) for the listed i, random weights.
template <typename W>
Disc<std::string, W> on_keys(const std::vector<std::size_t>& keys,
                             Xoshiro256& rng) {
  Disc<std::string, W> d;
  for (std::size_t i : keys) d.add(long_key(i), draw_weight(rng, W{}));
  return d;
}

/// add() fold of every entry of `src` into a copy of `dst`: the reference.
template <typename W>
Disc<std::string, W> fold_add(Disc<std::string, W> dst,
                              const Disc<std::string, W>& src) {
  for (const auto& [t, w] : src.entries()) dst.add(t, w);
  return dst;
}

template <typename W>
void expect_merge_matches_add(const Disc<std::string, W>& dst,
                              const Disc<std::string, W>& src,
                              const std::string& label) {
  const Disc<std::string, W> want = fold_add(dst, src);
  Disc<std::string, W> by_ref = dst;
  by_ref.merge(src);
  EXPECT_EQ(by_ref, want) << label << " (const merge)";
  Disc<std::string, W> by_move = dst;
  Disc<std::string, W> src_copy = src;
  by_move.merge(std::move(src_copy));
  EXPECT_EQ(by_move, want) << label << " (rvalue merge)";
}

template <typename W>
void merge_cases(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::vector<std::size_t> none;
  const std::vector<std::size_t> evens = {0, 2, 4, 6, 8, 10};
  const std::vector<std::size_t> odds = {1, 3, 5, 7, 9, 11};
  const std::vector<std::size_t> above = {20, 21, 22};
  const std::vector<std::size_t> ends_and_middle = {0, 5, 10};
  const std::vector<std::size_t> ends_with_fresh = {0, 3, 5, 9, 10};
  const auto d = [&](const std::vector<std::size_t>& k) {
    return on_keys<W>(k, rng);
  };
  expect_merge_matches_add(d(none), d(none), "both empty");
  expect_merge_matches_add(d(none), d(evens), "empty destination");
  expect_merge_matches_add(d(evens), d(none), "empty source");
  expect_merge_matches_add(d(evens), d(odds), "all keys new, interleaved");
  expect_merge_matches_add(d(evens), d(above), "all keys new, past the end");
  expect_merge_matches_add(d(above), d(evens), "all keys new, before");
  expect_merge_matches_add(d(evens), d(evens), "all keys shared");
  expect_merge_matches_add(d(evens), d({0, 10}), "shared first and last");
  expect_merge_matches_add(d(ends_and_middle), d(ends_with_fresh),
                           "shared first and last, fresh between");
  expect_merge_matches_add(d(evens), d({0, 2, 4, 6, 8, 10, 12}),
                           "shared prefix, one fresh key at the end");
  // Random pairs over a small key universe: every overlap pattern.
  for (int round = 0; round < 200; ++round) {
    std::vector<std::size_t> a, b;
    for (std::size_t i = 0; i < 16; ++i) {
      if (rng.below(2) == 0) a.push_back(i);
      if (rng.below(2) == 0) b.push_back(i);
    }
    expect_merge_matches_add(d(a), d(b), "random round " + std::to_string(round));
  }
}

TEST(DiscMerge, DoubleMergeMatchesAddFold) { merge_cases<double>(71); }

TEST(DiscMerge, ExactMergeMatchesAddFold) { merge_cases<Rational>(72); }

TEST(DiscMerge, ExactCancellationRemovesSharedKeys) {
  ExactDisc<std::string> a;
  a.add(long_key(0), Rational(1, 3));
  a.add(long_key(1), Rational(1, 2));
  a.add(long_key(2), Rational(1, 6));
  ExactDisc<std::string> b;
  b.add(long_key(0), Rational(-1, 3));
  b.add(long_key(2), Rational(-1, 6));
  b.add(long_key(3), Rational(1, 4));
  expect_merge_matches_add(a, b, "cancel first and last");
  a.merge(b);
  ASSERT_EQ(a.support_size(), 2u);
  EXPECT_EQ(a.entries()[0].first, long_key(1));
  EXPECT_EQ(a.entries()[1].first, long_key(3));
}

TEST(DiscMerge, TransformMatchesAddOfTransformedWeights) {
  Xoshiro256 rng(73);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::size_t> a, b;
    for (std::size_t i = 0; i < 16; ++i) {
      if (rng.below(2) == 0) a.push_back(i);
      if (rng.below(2) == 0) b.push_back(i);
    }
    const Disc<std::string, double> dst = on_keys<double>(a, rng);
    const ExactDisc<std::string> src = on_keys<Rational>(b, rng);
    Disc<std::string, double> want = dst;
    for (const auto& [t, w] : src.entries()) want.add(t, w.to_double() / 3.0);
    Disc<std::string, double> got = dst;
    got.merge(src, [](const Rational& w) { return w.to_double() / 3.0; });
    EXPECT_EQ(got, want) << "round " << round;
  }
}

}  // namespace
}  // namespace cdse
