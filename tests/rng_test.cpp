// xoshiro256** generator (util/rng.hpp): stream derivation and the
// debiased bounded draw (Lemire multiply-shift with rejection).

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stat_util.hpp"

namespace cdse {
namespace {

using cdse::testing::chi_square_gof_counts;
using cdse::testing::kStatAlpha;

TEST(Xoshiro, StreamsAreDeterministicAndDistinct) {
  Xoshiro256 a = Xoshiro256::for_stream(42, 0);
  Xoshiro256 a2 = Xoshiro256::for_stream(42, 0);
  Xoshiro256 b = Xoshiro256::for_stream(42, 1);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a();
    EXPECT_EQ(va, a2());
    any_diff = any_diff || (va != b());
  }
  EXPECT_TRUE(any_diff);
}

TEST(XoshiroBelow, StaysInRange) {
  Xoshiro256 rng(7);
  for (const std::uint64_t n : {1ULL, 2ULL, 3ULL, 48ULL, 1000003ULL}) {
    for (int i = 0; i < 256; ++i) EXPECT_LT(rng.below(n), n);
  }
}

TEST(XoshiroBelow, SmallBoundIsUniformChiSquare) {
  // 48 slots is the widest scheduler row the stack zoo produces; 20000
  // draws give every cell expectation ~416.
  constexpr std::uint64_t kBound = 48;
  constexpr std::size_t kTrials = 20000;
  Xoshiro256 rng(0xfeedULL);
  std::vector<double> counts(kBound, 0.0);
  for (std::size_t i = 0; i < kTrials; ++i) ++counts[rng.below(kBound)];
  std::vector<std::pair<double, double>> cells;
  for (double c : counts) cells.emplace_back(1.0 / kBound, c);
  const auto r = chi_square_gof_counts(cells, kTrials, 0.0);
  EXPECT_GT(r.pvalue, kStatAlpha) << "stat=" << r.stat;
}

TEST(XoshiroBelow, WorstCaseBoundIsUniformChiSquare) {
  // n = 2^63 + 1 maximizes the rejection window (2^64 mod n = n - 2, so
  // ~half of all raw words are rejected) -- the adversarial case the
  // Lemire rejection step exists for. Without the rejection step the
  // multiply-shift maps two raw words onto every even output and one
  // onto every odd output, a bias this bucketed chi-square detects with
  // overwhelming power... at the bucket level: bucket draws by their
  // top 5 bits, 32 cells of probability 2^58 / (2^63 + 1) each.
  constexpr std::uint64_t kBound = (1ULL << 63) + 1;
  constexpr std::size_t kTrials = 20000;
  Xoshiro256 rng(0xabcdULL);
  std::vector<double> counts(32, 0.0);
  for (std::size_t i = 0; i < kTrials; ++i) {
    const std::uint64_t v = rng.below(kBound);
    ASSERT_LT(v, kBound);
    counts[std::min<std::uint64_t>(v >> 58, 31)] += 1.0;
  }
  const double p = static_cast<double>(1ULL << 58) / 9.223372036854775809e18;
  std::vector<std::pair<double, double>> cells;
  for (double c : counts) cells.emplace_back(p, c);
  const auto r = chi_square_gof_counts(cells, kTrials, 0.0);
  EXPECT_GT(r.pvalue, kStatAlpha) << "stat=" << r.stat;
}

TEST(XoshiroBelow, MatchesReferenceRejectionSchedule) {
  // Pins the algorithm, not just the distribution: multiply-shift on
  // each raw word, re-draw while the product's low half lands under
  // 2^64 mod n.
  constexpr std::uint64_t kBound = (1ULL << 62) + 12345;  // ~25% rejection
  Xoshiro256 rng(99);
  Xoshiro256 raw(99);
  const std::uint64_t thresh = (0 - kBound) % kBound;
  for (int i = 0; i < 512; ++i) {
    unsigned __int128 m;
    std::uint64_t lo;
    do {
      m = static_cast<unsigned __int128>(raw()) * kBound;
      lo = static_cast<std::uint64_t>(m);
    } while (lo < thresh);
    EXPECT_EQ(rng.below(kBound), static_cast<std::uint64_t>(m >> 64));
  }
}

}  // namespace
}  // namespace cdse
