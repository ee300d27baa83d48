// Exact multinomial splits (util/multinomial.hpp): the binomial draw
// against its exact pmf on both of its branches, split-row construction
// (input checks, the slot-probability invariant, deterministic rebuild
// across freeze() calls), the law of a split against the multinomial
// marginals, and the CDF fall-through clamp regressions for CompiledRow
// / ChoiceRow (adversarial weights whose double CDF rounds short of 1.0).
//
// The AliasBuild / AliasDraws / AliasFrozen suites keep the names they
// had when the rows carried Walker alias tables; their subject is now
// the split row that replaced the table.

#include "util/multinomial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "protocols/coinflip.hpp"
#include "psioa/memo.hpp"
#include "sched/sampler.hpp"
#include "sched/schedulers.hpp"
#include "stat_util.hpp"
#include "util/rng.hpp"

namespace cdse {
namespace {

/// Induced probability that one execution lands in slot i: the mass the
/// earlier slots left over times slot i's conditional share.
std::vector<double> slot_probabilities(const SplitRow& row) {
  std::vector<double> p(row.size(), 0.0);
  double rem = 1.0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    p[i] = rem * row.cond[i];
    rem -= p[i];
  }
  return p;
}

/// log P[Binomial(n, p) = k], for the reference pmfs of the chi-square
/// tests (single-threaded, so std::lgamma is fine here).
double binomial_log_pmf(std::uint64_t n, double p, std::uint64_t k) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  double lp = std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
              std::lgamma(nd - kd + 1.0);
  if (k > 0) lp += kd * std::log(p);
  if (k < n) lp += (nd - kd) * std::log1p(-p);
  return lp;
}

/// Chi-square goodness of fit of `draws` against Binomial(n, p): the
/// support within 10 standard deviations of the mean is cut into bins
/// of width max(1, sd / 4), so wide supports still give every central
/// bin a sizable expectation; the mass outside is one more cell.
testing::ChiSquareResult binomial_gof(const std::vector<std::uint64_t>& draws,
                                      std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double mean = nd * p;
  const double sd = std::sqrt(nd * p * (1.0 - p));
  const auto lo = static_cast<std::uint64_t>(
      std::max(0.0, std::floor(mean - 10.0 * sd - 1.0)));
  const auto hi = static_cast<std::uint64_t>(
      std::min(nd, std::ceil(mean + 10.0 * sd + 1.0)));
  const auto width = static_cast<std::uint64_t>(std::max(1.0, sd / 4.0));
  const std::size_t bins = static_cast<std::size_t>((hi - lo) / width) + 1;
  std::vector<double> prob(bins, 0.0);
  std::vector<double> count(bins, 0.0);
  for (std::uint64_t k = lo; k <= hi; ++k) {
    prob[(k - lo) / width] += std::exp(binomial_log_pmf(n, p, k));
  }
  double inside = 0.0;
  for (double x : prob) inside += x;
  double outside_count = 0.0;
  for (std::uint64_t k : draws) {
    if (k < lo || k > hi) {
      outside_count += 1.0;
    } else {
      count[(k - lo) / width] += 1.0;
    }
  }
  std::vector<std::pair<double, double>> cells;
  for (std::size_t b = 0; b < bins; ++b) cells.emplace_back(prob[b], count[b]);
  cells.emplace_back(std::max(0.0, 1.0 - inside), outside_count);
  return testing::chi_square_gof_counts(
      cells, static_cast<double>(draws.size()), 0.0);
}

const std::uint64_t kGridN[] = {1, 7, 40, 1000, std::uint64_t{1} << 23};
const double kGridP[] = {1e-7, 0.01, 0.3, 0.5, 0.9};

// ------------------------------------------------------------- binomial

TEST(Binomial, EdgeCasesDrawNoRandomness) {
  Xoshiro256 rng(0xb1);
  const Xoshiro256 before = rng;
  for (const double p : {0.0, 1e-7, 0.5, 1.0}) {
    EXPECT_EQ(binomial(rng, 0, p), 0u) << "p=" << p;
  }
  for (const std::uint64_t n : {1ULL, 40ULL, 1ULL << 40}) {
    EXPECT_EQ(binomial(rng, n, 0.0), 0u) << "n=" << n;
    EXPECT_EQ(binomial(rng, n, 1.0), n) << "n=" << n;
  }
  Xoshiro256 untouched = before;
  EXPECT_EQ(rng(), untouched());  // none of the above drew
  EXPECT_THROW(binomial(rng, 5, std::nan("")), std::invalid_argument);
  EXPECT_THROW(binomial(rng, 5, -0.1), std::invalid_argument);
  EXPECT_THROW(binomial(rng, 5, 1.5), std::invalid_argument);
}

TEST(Binomial, ChiSquareMatchesExactPmf) {
  // The grid covers inversion (n * min(p, 1 - p) < 10), BTRS (>= 10)
  // and the p > 1/2 reflection of each.
  constexpr std::size_t kDraws = 20000;
  std::uint64_t seed = 0xb10;
  for (const std::uint64_t n : kGridN) {
    for (const double p : kGridP) {
      Xoshiro256 rng(seed++);
      std::vector<std::uint64_t> draws(kDraws);
      for (auto& k : draws) {
        k = binomial(rng, n, p);
        ASSERT_LE(k, n);
      }
      const auto r = binomial_gof(draws, n, p);
      EXPECT_GE(r.pvalue, testing::kStatAlpha)
          << "n=" << n << " p=" << p << " stat=" << r.stat
          << " dof=" << r.dof;
    }
  }
}

TEST(Binomial, RejectionBranchMatchesExactPmfAtHighPower) {
  // BTRS accepts most proposals by its squeeze and tests the rest
  // against the exact log-pmf ratio; a wrong squeeze bound or a shifted
  // ratio moves little mass, so these points take 2M draws each
  // (a 5% error in the ratio test fails here, not at 20000 draws).
  constexpr std::size_t kDraws = 2000000;
  const std::pair<std::uint64_t, double> points[] = {
      {40, 0.5}, {1000, 0.3}, {1000, 0.01}};
  std::uint64_t seed = 0xb7e5;
  for (const auto& [n, p] : points) {
    Xoshiro256 rng(seed++);
    std::vector<std::uint64_t> draws(kDraws);
    for (auto& k : draws) k = binomial(rng, n, p);
    const auto r = binomial_gof(draws, n, p);
    EXPECT_GE(r.pvalue, testing::kStatAlpha)
        << "n=" << n << " p=" << p << " stat=" << r.stat
        << " dof=" << r.dof;
  }
}

TEST(Binomial, DrawsAreSeedDeterministic) {
  Xoshiro256 a(77);
  Xoshiro256 b(77);
  Xoshiro256 c(78);
  bool any_diff = false;
  for (const std::uint64_t n : kGridN) {
    for (const double p : kGridP) {
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t k = binomial(a, n, p);
        EXPECT_EQ(k, binomial(b, n, p)) << "n=" << n << " p=" << p;
        any_diff = any_diff || k != binomial(c, n, p);
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------------ split rows

TEST(SplitRow, CountsSumToCountAndSkipZeroWeightSlots) {
  const std::vector<std::vector<double>> cases = {
      {0.0, 3.0, 0.0, 1.0},
      {1.0, 0.0, 2.0, 0.0, 0.0},
      {0.0, 0.0, 5.0},
      {0.1, 0.2, 0.3, 0.4},
      {1e-9, 1.0, 1e9},
  };
  Xoshiro256 rng(0x5917);
  for (const auto& w : cases) {
    const SplitRow row = SplitRow::build(w);
    for (const std::uint64_t count :
         {1ULL, 2ULL, 9ULL, 100ULL, 4096ULL, 1ULL << 30}) {
      std::vector<std::uint64_t> tally(row.size(), 0);
      const std::size_t draws = row.split(rng, count, tally.data());
      EXPECT_LT(draws, row.size());
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < w.size(); ++i) {
        sum += tally[i];
        if (w[i] == 0.0) {
          EXPECT_EQ(tally[i], 0u) << "zero-weight slot " << i;
        }
      }
      EXPECT_EQ(sum, count);
    }
  }
}

TEST(SplitRow, SlotCountsMatchMultinomialMarginalsChiSquare) {
  // Slot i of a Multinomial(C, p) split is Binomial(C, p_i) on its own:
  // histogram each slot's count over many splits against that pmf.
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0, 0.0, 5.0};
  double total = 0.0;
  for (double x : w) total += x;
  const SplitRow row = SplitRow::build(w);
  constexpr std::uint64_t kCount = 60;
  constexpr std::size_t kReps = 20000;
  std::vector<std::vector<std::uint64_t>> per_slot(
      w.size(), std::vector<std::uint64_t>(kReps));
  Xoshiro256 rng(0x3a461);
  for (std::size_t r = 0; r < kReps; ++r) {
    std::vector<std::uint64_t> tally(row.size(), 0);
    row.split(rng, kCount, tally.data());
    for (std::size_t i = 0; i < w.size(); ++i) per_slot[i][r] = tally[i];
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] == 0.0) continue;
    const auto r = binomial_gof(per_slot[i], kCount, w[i] / total);
    EXPECT_GE(r.pvalue, testing::kStatAlpha)
        << "slot " << i << " stat=" << r.stat << " dof=" << r.dof;
  }
}

// ------------------------------------------------------ split-row build

TEST(AliasBuild, EmptyTableHasNoSlots) {
  const SplitRow t = SplitRow::build({});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(AliasBuild, InvalidWeightsThrow) {
  EXPECT_THROW(SplitRow::build({1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(SplitRow::build({std::nan("")}), std::invalid_argument);
  EXPECT_THROW(
      SplitRow::build({std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  // A nonempty row must carry mass: all-zero weights are a caller bug.
  EXPECT_THROW(SplitRow::build({0.0, 0.0}), std::invalid_argument);
  // Finite weights whose total overflows have no finite shares.
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW(SplitRow::build({big, big}), std::invalid_argument);
}

TEST(AliasBuild, SingleSupportAlwaysPicksTheOneSlot) {
  const SplitRow t = SplitRow::build({7.25});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.cond[0], 1.0);
  Xoshiro256 rng(3);
  const Xoshiro256 before = rng;
  for (const std::uint64_t count : {1ULL, 1000ULL, 1ULL << 40}) {
    std::uint64_t tally = 0;
    EXPECT_EQ(t.split(rng, count, &tally), 0u);  // no binomial drawn
    EXPECT_EQ(tally, count);
  }
  Xoshiro256 untouched = before;
  EXPECT_EQ(rng(), untouched());
}

TEST(AliasBuild, ZeroWeightSlotsAreNeverPicked) {
  const SplitRow t = SplitRow::build({0.0, 3.0, 0.0, 1.0});
  const std::vector<double> p = slot_probabilities(t);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
  EXPECT_NEAR(p[3], 0.25, 1e-12);
  // A trailing zero-weight slot: the last positive slot takes the
  // remainder (share exactly 1), the zeros after it share 0.
  const SplitRow trail = SplitRow::build({1.0, 2.0, 0.0});
  EXPECT_EQ(trail.cond[1], 1.0);
  EXPECT_EQ(trail.cond[2], 0.0);
  Xoshiro256 rng(0x2e0);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<std::uint64_t> tally(4, 0);
    t.split(rng, 1000, tally.data());
    EXPECT_EQ(tally[0], 0u);
    EXPECT_EQ(tally[2], 0u);
    std::vector<std::uint64_t> tail(3, 0);
    trail.split(rng, 1000, tail.data());
    EXPECT_EQ(tail[2], 0u);
  }
  // Near-zero (denormal-scale) weights survive the build and claim
  // essentially no mass.
  const SplitRow tiny = SplitRow::build({1e-300, 1.0});
  const std::vector<double> q = slot_probabilities(tiny);
  EXPECT_LT(q[0], 1e-12);
  EXPECT_NEAR(q[1], 1.0, 1e-12);
}

TEST(AliasBuild, SlotProbabilityInvariantHoldsForVariedWeights) {
  const std::vector<std::vector<double>> cases = {
      {1.0, 1.0, 1.0},
      {1.0, 2.0, 3.0, 4.0},
      {0.5, 0.25, 0.125, 0.0625, 0.0625},
      {1e-9, 1.0, 1e9},
      {3.0, 0.0, 1.0, 0.0, 2.0, 5.0, 0.25},
  };
  for (const auto& w : cases) {
    const SplitRow t = SplitRow::build(w);
    double total = 0.0;
    for (double x : w) total += x;
    const std::vector<double> p = slot_probabilities(t);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(p[i], w[i] / total, 1e-12)
          << "slot " << i << " of case with " << w.size() << " weights";
    }
  }
}

TEST(AliasBuild, RepresentableRationalWeightsAreExact) {
  // Dyadic rationals (1/4, 1/2, 1/4): the induced slot probabilities
  // come out exact, not just within epsilon.
  const std::vector<Rational> w = {Rational(1, 4), Rational(1, 2),
                                   Rational(1, 4)};
  std::vector<double> wd;
  for (const Rational& r : w) wd.push_back(r.to_double());
  const std::vector<double> p = slot_probabilities(SplitRow::build(wd));
  EXPECT_EQ(p[0], 0.25);
  EXPECT_EQ(p[1], 0.5);
  EXPECT_EQ(p[2], 0.25);
}

TEST(AliasBuild, NonRepresentableRationalWeightsRoundWithinUlps) {
  // 1/3 is not a double; the build sees three copies of the nearest
  // double and the invariant holds to rounding, not exactly.
  const double third = Rational(1, 3).to_double();
  const std::vector<double> p =
      slot_probabilities(SplitRow::build({third, third, third}));
  for (double x : p) {
    EXPECT_NEAR(x, 1.0 / 3.0, 1e-15);
  }
}

TEST(AliasBuild, RebuildIsBitIdentical) {
  const std::vector<double> w = {0.1, 0.7, 0.05, 0.15, 1e-9};
  const SplitRow a = SplitRow::build(w);
  const SplitRow b = SplitRow::build(w);
  EXPECT_TRUE(a == b);
}

TEST(AliasDraws, ChiSquareMatchesWeights) {
  // 100000 executions split in classes of 1, 7, 40 and 1000, so both
  // binomial branches run; independent splits over one row add up to a
  // single Multinomial(100000, w / 10).
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  const SplitRow t = SplitRow::build(w);
  constexpr std::uint64_t kTrials = 100000;
  const std::uint64_t class_sizes[] = {1, 7, 40, 1000};
  Xoshiro256 rng(0xa11a5);
  std::vector<std::uint64_t> tally(w.size(), 0);
  std::uint64_t done = 0;
  for (std::size_t c = 0; done < kTrials; ++c) {
    const std::uint64_t m = std::min(class_sizes[c % 4], kTrials - done);
    t.split(rng, m, tally.data());
    done += m;
  }
  std::vector<std::pair<double, double>> cells;
  for (std::size_t i = 0; i < w.size(); ++i) {
    cells.emplace_back(w[i] / 10.0, static_cast<double>(tally[i]));
  }
  const auto r = testing::chi_square_gof_counts(
      cells, static_cast<double>(kTrials), 0.0);
  EXPECT_GE(r.pvalue, testing::kStatAlpha)
      << "stat=" << r.stat << " dof=" << r.dof;
}

// ----------------------------------------------------- frozen-row identity

TEST(AliasFrozen, RebuildAcrossFreezesIsBitIdentical) {
  // Two ParallelSamplers prepared from identical factories warm their
  // instances through the same deterministic plan, so every frozen row's
  // split row must come out bit-identical -- the property that makes
  // batched draws reproducible across prepare() calls and re-freezes.
  auto make_aut = []() -> PsioaPtr {
    return make_coin("alias_fz", Rational(1, 3));
  };
  auto make_sched = []() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(6, true);
  };
  WarmupPlan plan;
  plan.horizon = 6;
  ParallelSampler s1(make_aut, make_sched);
  ParallelSampler s2(make_aut, make_sched);
  s1.prepare(plan, 6);
  s2.prepare(plan, 6);
  const auto snap1 = s1.snapshot();
  const auto snap2 = s2.snapshot();
  ASSERT_EQ(snap1->state_count(), snap2->state_count());
  ASSERT_EQ(snap1->row_count(), snap2->row_count());
  ASSERT_GT(snap1->row_count(), 0u);
  for (const auto& [q, fs] : snap1->frozen_states()) {
    for (const auto& [a, row] : fs.rows) {
      const CompiledRow* other = snap2->find_row(q, a);
      ASSERT_NE(other, nullptr);
      EXPECT_TRUE(row.split == other->split);
      EXPECT_EQ(row.targets, other->targets);
    }
  }
}

TEST(AliasFrozen, TablesSurviveSamplingAtAnyWorkerCount) {
  // The snapshot is immutable: sampling through pools of different sizes
  // must leave every frozen split row untouched (workers share the rows
  // read-only rather than copying or rebuilding them).
  auto make_aut = []() -> PsioaPtr {
    return make_coin("alias_wk", Rational(1, 4));
  };
  auto make_sched = []() -> SchedulerPtr {
    return std::make_shared<UniformScheduler>(6, true);
  };
  WarmupPlan plan;
  plan.horizon = 6;
  ParallelSampler sampler(make_aut, make_sched);
  sampler.prepare(plan, 6);
  const auto snap = sampler.snapshot();
  std::vector<SplitRow> before;
  for (const auto& [q, fs] : snap->frozen_states()) {
    (void)q;
    for (const auto& [a, row] : fs.rows) {
      (void)a;
      before.push_back(row.split);
    }
  }
  TraceInsight f;
  for (std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    (void)sampler.sample_fdist(f, 2000, 11, 6, pool, SamplingMode::kBatched);
  }
  std::size_t i = 0;
  for (const auto& [q, fs] : snap->frozen_states()) {
    (void)q;
    for (const auto& [a, row] : fs.rows) {
      (void)a;
      EXPECT_TRUE(row.split == before[i]);
      ++i;
    }
  }
}

// ------------------------------------------------- CDF fall-through clamps

TEST(CdfClamp, EqualWeightRowsRoundShortAndClampToLastTarget) {
  // k equal weights 1/k accumulate to a double CDF whose last entry can
  // round *below* 1.0 (ten 0.1s famously sum to 0.9999999999999999). A
  // uniform draw landing in that rounding gap must clamp to the last
  // target, never fall off the row.
  bool found_short_cdf = false;
  const double u_top = std::nextafter(1.0, 0.0);
  for (std::uint64_t k = 3; k <= 32; ++k) {
    StateDist d;
    for (std::uint64_t i = 0; i < k; ++i) {
      d.add(State{100 + i}, Rational(1, static_cast<std::int64_t>(k)));
    }
    const CompiledRow row = CompiledRow::compile(std::move(d));
    ASSERT_EQ(row.targets.size(), k);
    if (row.cdf.back() < 1.0) {
      found_short_cdf = true;
      EXPECT_EQ(row.sample(row.cdf.back()), row.targets.back())
          << "k=" << k << ": u inside the rounding gap fell off the row";
    }
    EXPECT_EQ(row.sample(u_top), row.targets.back()) << "k=" << k;
  }
  EXPECT_TRUE(found_short_cdf)
      << "no k in [3,32] produced a short CDF; the regression test lost "
         "its adversarial case";
}

TEST(CdfClamp, ExhaustiveChoiceRowClampsInsteadOfHalting) {
  // Ten exact 1/10 action weights: total mass is exactly 1, so halting
  // has probability zero -- but the double CDF rounds short. Before the
  // clamp, a draw in the gap returned kInvalidAction (a phantom halt).
  ActionChoice c;
  for (int i = 0; i < 10; ++i) {
    c.add(act("cdf_cl_" + std::to_string(i)), Rational(1, 10));
  }
  const ChoiceRow row = ChoiceRow::compile(c);
  ASSERT_EQ(row.actions.size(), 10u);
  EXPECT_TRUE(row.exhaustive);
  ASSERT_LT(row.cdf.back(), 1.0);  // the adversarial premise
  EXPECT_EQ(row.sample(std::nextafter(1.0, 0.0)), row.actions.back());
  EXPECT_EQ(row.sample(row.cdf.back()), row.actions.back());
  // The split row has no halt slot on an exhaustive row.
  EXPECT_EQ(row.split.size(), row.actions.size());
}

TEST(CdfClamp, SubProbabilityChoiceRowStillHalts) {
  // Genuine halting mass must keep halting: the clamp only covers rows
  // whose *exact* total is 1.
  ActionChoice c;
  c.add(act("cdf_hl_a"), Rational(1, 4));
  c.add(act("cdf_hl_b"), Rational(1, 4));
  const ChoiceRow row = ChoiceRow::compile(c);
  EXPECT_FALSE(row.exhaustive);
  EXPECT_EQ(row.sample(0.75), kInvalidAction);
  EXPECT_EQ(row.sample(std::nextafter(1.0, 0.0)), kInvalidAction);
  // The split row carries the residual as one last halt slot with the
  // same mass; check via the induced slot probabilities.
  ASSERT_EQ(row.split.size(), row.actions.size() + 1);
  const std::vector<double> p = slot_probabilities(row.split);
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.25, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);  // halt slot
}

TEST(CdfClamp, OverweightChoiceDegradesToExhaustive) {
  // A hostile scheduler emitting total mass > 1 (the exact enumerator
  // rejects it elsewhere) must not feed a negative halt weight into the
  // split-row builder.
  ActionChoice c;
  c.add(act("cdf_ow_a"), Rational(3, 4));
  c.add(act("cdf_ow_b"), Rational(1, 2));
  const ChoiceRow row = ChoiceRow::compile(c);
  EXPECT_TRUE(row.exhaustive);
  EXPECT_EQ(row.split.size(), row.actions.size());
}

}  // namespace
}  // namespace cdse
