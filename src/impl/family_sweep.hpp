#pragma once
// <=_{neg,pt} over families (Def 4.12, final clause).
//
// A family sweep evaluates epsilon(k) for a real/ideal pair across
// security parameters: exactly where the execution tree permits, sampled
// by sequential_balance_epsilon (impl/balance.hpp) where it does not. The
// empirical negligibility judgment (util/poly.hpp) then classifies the
// decay -- experiment E8's deliverable.

#include <cstdint>
#include <optional>
#include <vector>

#include "bounded/family.hpp"
#include "impl/balance.hpp"

namespace cdse {

struct FamilySweepRow {
  std::uint32_t k = 0;
  /// Exact epsilon when enumeration was feasible.
  std::optional<Rational> exact;
  /// Sampled epsilon (the exact one, as a double, on exact cells).
  double sampled = 0.0;
  double radius = 1.0;
  /// Sampled-cell bookkeeping of sequential_balance_epsilon (kUndecided /
  /// zero on exact cells; a fixed-trial cell's verdict is its point
  /// comparison against seq.threshold).
  SeqVerdict verdict = SeqVerdict::kUndecided;
  std::size_t trials_used = 0;  ///< per-side trials the cell committed
  std::uint64_t draws = 0;      ///< logical draws the cell spent
};

struct FamilySweepReport {
  std::vector<FamilySweepRow> rows;
  bool negligible_looking = false;  // util::looks_negligible on exact/sampled
  double fitted_exponent = 0.0;     // eps(k) ~ 2^{-c k}: the fitted c
  std::uint64_t total_draws = 0;    // sampled-cell draws (E22 cost headline)
};

/// Sweeps eps(k) = balance distance between E_k||A_k and E_k||B_k under
/// sigma_k. `exact_upto`: indices <= this use exact enumeration. With an
/// enabled `policy` the exact cells enumerate bisimulation quotients
/// (per-side fallback on warm-up truncation); every exact epsilon is
/// Rational-equal to the unreduced sweep.
///
/// The other cells are sampled by sequential_balance_epsilon under
/// `seq`, which must then be active (std::invalid_argument, before any
/// work, otherwise): SequentialPolicy::fixed(n) runs n trials per side,
/// a deciding policy stops each cell as soon as its confidence sequence
/// decides seq.threshold, recording verdict/trials_used/draws. The
/// per-cell confidence budget is seq.delta split evenly over the
/// sampled cells (union bound: the sweep's sampled verdicts are jointly
/// wrong with probability at most seq.delta). Sampled cells need the
/// batched scheduler contract (choice a function of the last state and
/// the length; sched/batch_sampler.hpp) and ignore `policy`.
FamilySweepReport family_epsilon_sweep(
    const PsioaFamily& lhs, const PsioaFamily& rhs,
    const SchedulerFamily& sched, const InsightFunction& f,
    const std::vector<std::uint32_t>& ks, std::size_t max_depth,
    std::uint32_t exact_upto, std::uint64_t seed, ThreadPool& pool,
    const ReductionPolicy& policy = {}, const SequentialPolicy& seq = {});

}  // namespace cdse
