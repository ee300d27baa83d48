#pragma once
// Exact multinomial splits: how the batched sampler divides a trajectory
// class over a compiled row.
//
// A class of `count` executions standing at the same state with the same
// history draws from one row -- a scheduler's action choice or a
// transition's target distribution -- independently per execution. The
// numbers landing in the row's slots are then jointly
// Multinomial(count, w / sum w), and a multinomial factors into
// conditional binomials: slot i receives
//   Binomial(left, w_i / sum_{j >= i} w_j)
// of the `left` executions the earlier slots did not take, and the last
// slot with positive weight receives the remainder. Drawing the split
// that way costs at most one binomial per slot, whatever the count, and
// has exactly the law of `count` independent per-execution picks
// (sched/batch_sampler.hpp relies on this; tests/multinomial_test.cpp
// pins the marginals by chi-square).
//
// binomial() draws by inversion when n * min(p, 1 - p) < 10 and by
// Hormann's BTRS transformed rejection otherwise (W. Hormann, "The
// generation of binomial random variates", J. Statist. Comput. Simul. 46,
// 1993), both O(1) expected time in n. log k! comes from a table below 30
// and a Stirling series above; std::lgamma is avoided on purpose, because
// glibc's writes the global `signgam`, a data race across pool workers.
//
// Determinism: a draw is a pure function of the generator state and
// (n, p), computed with libm's log, log1p, exp and sqrt -- reproducible
// on one build and host, not promised bit-identical across libm builds.
// SplitRow::build is a pure function of the weight vector, so recompiling
// a row (across freeze() calls, worker counts or processes) yields
// bit-identical rows.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cdse {

/// One Binomial(n, p) draw from `rng`. n = 0 or p = 0 draws 0 and p = 1
/// draws n without touching the generator. Throws std::invalid_argument
/// when p is NaN or outside [0, 1].
std::uint64_t binomial(Xoshiro256& rng, std::uint64_t n, double p);

/// A row compiled for multinomial splits over its slots.
struct SplitRow {
  /// Slot i's conditional share w_i / sum_{j >= i} w_j of what the
  /// earlier slots left over. The last slot with positive weight holds
  /// exactly 1 and the zero-weight slots after it hold 0, so a split
  /// never hands counts to a zero-weight slot.
  std::vector<double> cond;

  bool empty() const { return cond.empty(); }
  std::size_t size() const { return cond.size(); }

  /// Builds the row for (unnormalized) non-negative weights. Throws
  /// std::invalid_argument when a weight is negative or not finite, or
  /// when the total is not positive (a nonempty row must carry mass).
  static SplitRow build(const std::vector<double>& weights);

  /// Adds one Multinomial(count, w / sum w) draw to tally[0, size()):
  /// one binomial per slot of positive share before the last, none for
  /// the rest. Returns the number of binomials drawn.
  std::size_t split(Xoshiro256& rng, std::uint64_t count,
                    std::uint64_t* tally) const;

  friend bool operator==(const SplitRow& a, const SplitRow& b) {
    return a.cond == b.cond;
  }
};

}  // namespace cdse
