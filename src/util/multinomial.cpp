#include "util/multinomial.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace cdse {

namespace {

constexpr int kLogFactTable = 30;

/// log k! for an integer-valued k >= 0: the table below kLogFactTable,
/// the Stirling series above it (truncated after the k^-7 term, whose
/// successor is below 1e-16 at k = 30).
double log_factorial(double k) {
  static const std::array<double, kLogFactTable> table = [] {
    std::array<double, kLogFactTable> t{};
    for (int i = 1; i < kLogFactTable; ++i) {
      t[i] = t[i - 1] + std::log(static_cast<double>(i));
    }
    return t;
  }();
  if (k < kLogFactTable) return table[static_cast<int>(k)];
  const double r = 1.0 / k;
  const double r2 = r * r;
  constexpr double kHalfLog2Pi = 0.91893853320467274178;
  return (k + 0.5) * std::log(k) - k + kHalfLog2Pi +
         r * (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 / 1680)));
}

/// Inversion for p <= 1/2 and n * p < 10: walk the pmf from 0 with the
/// ratio recurrence P(x) / P(x - 1) = (n + 1 - x) / x * p / q. Past
/// n * p + 10 * sqrt(n * p * q + 1) (a tail of mass about 1e-15 at most)
/// the walk restarts with a fresh uniform, so a uniform the rounded pmf
/// sums cannot reach never loops.
std::uint64_t binomial_inversion(Xoshiro256& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = (nd + 1.0) * s;
  const double q_n = std::exp(nd * std::log1p(-p));
  const double bound =
      std::min(nd, nd * p + 10.0 * std::sqrt(nd * p * q + 1.0));
  for (;;) {
    double u = rng.uniform();
    double px = q_n;
    std::uint64_t x = 0;
    while (u >= px) {
      u -= px;
      ++x;
      if (static_cast<double>(x) > bound) break;
      px *= a / static_cast<double>(x) - s;
    }
    if (static_cast<double>(x) <= bound) return x;
  }
}

/// Hormann's BTRS for p <= 1/2 and n * p >= 10 (steps 0-3.2 of the
/// paper): a transformed-rejection proposal, a squeeze that accepts
/// most draws with no logarithm, and the exact log-pmf ratio test for
/// the rest. The ratio is formed from log k! terms of size ~n log n, so
/// its rounding error grows like n * 1e-16 (about 1e-8 at n = 2^23).
std::uint64_t binomial_btrs(Xoshiro256& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1.0) * p);
  const double h = log_factorial(m) + log_factorial(nd - m);
  for (;;) {
    const double u = rng.uniform() - 0.5;
    const double v = rng.uniform();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    const double lv = std::log(v * alpha / (a / (us * us) + b));
    if (lv <= h - log_factorial(k) - log_factorial(nd - k) + (k - m) * lpq) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t binomial(Xoshiro256& rng, std::uint64_t n, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("binomial: p must lie in [0, 1]");
  }
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Reflect to p <= 1/2; 1 - p is exact for p in [1/2, 1].
  const bool flip = p > 0.5;
  const double pp = flip ? 1.0 - p : p;
  const std::uint64_t k = static_cast<double>(n) * pp < 10.0
                              ? binomial_inversion(rng, n, pp)
                              : binomial_btrs(rng, n, pp);
  return flip ? n - k : k;
}

SplitRow SplitRow::build(const std::vector<double>& weights) {
  SplitRow row;
  if (weights.empty()) return row;
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "SplitRow::build: weights must be finite and non-negative");
    }
    total += w;
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument(
        "SplitRow::build: total weight must be positive and finite");
  }
  // Suffix sums from the back. Trailing zeros add nothing, so the last
  // positive slot divides its weight by itself: exactly 1.
  row.cond.resize(weights.size());
  double suffix = 0.0;
  for (std::size_t i = weights.size(); i-- > 0;) {
    suffix += weights[i];
    row.cond[i] = suffix > 0.0 ? weights[i] / suffix : 0.0;
  }
  return row;
}

std::size_t SplitRow::split(Xoshiro256& rng, std::uint64_t count,
                            std::uint64_t* tally) const {
  std::size_t draws = 0;
  std::uint64_t left = count;
  for (std::size_t i = 0; left > 0; ++i) {
    const double c = cond[i];
    if (c <= 0.0) continue;
    if (c >= 1.0) {
      tally[i] += left;
      break;
    }
    const std::uint64_t k = binomial(rng, left, c);
    ++draws;
    tally[i] += k;
    left -= k;
  }
  return draws;
}

}  // namespace cdse
