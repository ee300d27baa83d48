#pragma once
// Balanced schedulers (Def 3.6) and epsilon computation.
//
// sigma S^{<=eps}_{E,f} sigma' holds when every family-sum of f-dist
// differences stays within eps; for finite-support f-dists that supremum
// is the balance distance of measure/disc.hpp (= total variation for
// probability measures). These helpers evaluate the *exact* epsilon
// between two scheduled systems -- the left/right automata are expected
// to already include the environment (E||A and E||B) -- and decide a
// sampled epsilon against a threshold (sequential_balance_epsilon). A
// sampled verdict is a function of the systems, the policy and the seed:
// the plain path runs each side on one stream, and only the
// importance-splitting path spreads work (its strata) over the pool.

#include "sched/cone_measure.hpp"
#include "sched/exact_engine.hpp"
#include "sched/sampler.hpp"
#include "sched/seq_estimator.hpp"

namespace cdse {

/// Exact epsilon: balance distance between the two exact f-dists. With
/// an enabled `policy` each side is frozen, minimized to its
/// bisimulation quotient, and enumerated over blocks -- the result is
/// Rational-equal to the unreduced enumeration (quotienting preserves
/// every signature-driven scheduler and trace-functional insight
/// exactly; tests/quotient_test.cpp pins the equality across the whole
/// stack zoo). Sides whose covering warm-up truncates fall back to the
/// raw enumeration, so the policy never changes the answer. `stats`
/// (optional) receives the enumeration counters summed over both sides,
/// including quotient_states/quotient_blocks when reduced.
Rational exact_balance_epsilon(Psioa& lhs, Scheduler& sigma_lhs, Psioa& rhs,
                               Scheduler& sigma_rhs, const InsightFunction& f,
                               std::size_t max_depth,
                               const ReductionPolicy& policy = {},
                               ConeStats* stats = nullptr);

/// True iff sigma_lhs S^{<=eps}_{E,f} sigma_rhs, exactly.
bool balanced(Psioa& lhs, Scheduler& sigma_lhs, Psioa& rhs,
              Scheduler& sigma_rhs, const InsightFunction& f,
              std::size_t max_depth, const Rational& eps);

// -- sequential (answer-cost) epsilon --------------------------------------

/// Result of one sequential epsilon decision. With policy.sequential()
/// the verdict is anytime-valid at confidence 1 - delta and `trials` /
/// `draws` record what the early stop actually cost; with a fixed
/// policy (delta == 0) the whole budget runs and the verdict is the
/// point comparison estimate vs threshold -- the fixed-trial sampled
/// epsilon (radius: twice the Hoeffding radius at 1e-6) and the
/// reference row of the E22 draw-count tables.
struct SequentialEpsilon {
  double estimate = 0.0;
  double radius = 1.0;
  SeqVerdict verdict = SeqVerdict::kUndecided;
  std::size_t trials = 0;   ///< per-side trials committed
  std::uint64_t draws = 0;  ///< logical action+target draws, both sides
  std::size_t looks = 0;    ///< estimator looks spent
  std::size_t stages = 0;   ///< geometric trial stages run
  std::size_t strata = 0;   ///< live strata, both sides (0 = plain mode)
};

/// Sequential epsilon between E||A (make_lhs under make_sigma_lhs) and
/// E||B: prepares one frozen snapshot per side (WarmupPlan with
/// horizon = max_depth), then commits trials in geometric stages
/// (policy.initial_trials, x policy.growth, capped at
/// policy.max_trials), driving both sides' IncrementalFdistRun wave by
/// wave and handing the paired partial tallies to a SeqEstimator after
/// every wave -- stopping the moment the confidence sequence clears
/// policy.threshold. Each side of a stage is one run on one stream, so
/// this plain path leaves `pool` unused and its result is the same at
/// every pool size. policy.split_depth > 0 switches to the
/// importance-splitting estimator: the exact cone of each side is
/// expanded to split_depth (expand_prefix_strata), per-prefix
/// conditioned runs, fanned out over `pool` one stratum per task,
/// sample the conditional continuations, and the
/// stratified tally reweights by exact cone mass, with sample budget
/// steered toward strata whose action words show the largest cross-side
/// cone-mass gap (policy.split_boost). A splitting stage allocates
/// exactly its size: every live stratum gets max(1, min(
/// policy.split_min_trials, stage / strata)) and the rest goes by
/// steering weight, largest remainder first; a stage is at least the
/// wider side's stratum count, and the run ends when less than that is
/// left of the budget, so it never commits more than policy.max_trials.
/// A budget below the stratum count is rejected (std::invalid_argument)
/// before any sampling. The plain path stays available
/// (split_depth == 0) as the differential reference. Every scheduler
/// samples its own law: a MarkovScheduler shares rows per (state,
/// depth), any other is asked with each class's real history
/// (sched/batch_sampler.hpp). `mode` is unused; policy.active() is
/// required. An exception from a factory, a scheduler or the insight
/// function propagates: no epsilon is estimated from the surviving runs.
SequentialEpsilon sequential_balance_epsilon(
    const PsioaFactory& make_lhs, const SchedulerFactory& make_sigma_lhs,
    const PsioaFactory& make_rhs, const SchedulerFactory& make_sigma_rhs,
    const InsightFunction& f, const SequentialPolicy& policy,
    std::uint64_t seed, std::size_t max_depth, ThreadPool& pool,
    SamplingMode mode = SamplingMode::kBatched);

/// Per-stratum conditional tallies (importance splitting), exposed for
/// the chi-square unbiasedness gates: for each live stratum i of
/// `strata`, samples alloc[i] continuations conditioned on the stratum
/// prefix (one prefix-conditioned IncrementalFdistRun on stream i of
/// `seed`, stepped to completion as one pool task) and returns the
/// unnormalized per-perception tallies, in stratum order. Each stratum's
/// stream is keyed by its (deterministic, enumeration-order) index, so
/// the tallies are identical at every worker count.
std::vector<Disc<Perception, double>> stratified_sample_counts(
    const ParallelSampler& sampler, const InsightFunction& f,
    const PrefixStrata& strata, const std::vector<std::size_t>& alloc,
    std::uint64_t seed, std::size_t max_depth, ThreadPool& pool,
    BatchStats* stats = nullptr);

/// Rao-style reweighted estimate: settled (exact, to double) plus
/// sum_i cone_mass_i * counts_i / n_i over live strata -- unbiased for
/// the full-depth f-dist for any allocation with n_i >= 1 everywhere.
/// Strata with n_i == 0 are skipped (their mass goes missing; the
/// sequential driver never allocates zero).
Disc<Perception, double> stratified_fdist(
    const PrefixStrata& strata,
    const std::vector<Disc<Perception, double>>& counts,
    const std::vector<std::uint64_t>& n);

}  // namespace cdse
