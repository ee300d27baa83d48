#pragma once
// Anytime-valid sequential decision layer for sampled epsilon checks.
//
// The secure-emulation relation <=_SE reduces to deciding whether the
// distinguishing advantage eps -- the balance distance between the
// sampled f-dists of E||A and E||B -- lies above or below a threshold.
// A fixed-trial estimate burns its whole trial budget regardless of how
// early that decision is statistically settled; this module supplies the
// statistics that let it stop: a confidence-sequence engine that
// consumes running tallies built from the per-wave deltas of
// IncrementalFdistRun (sched/sampler.hpp; one stream per side and stage,
// so the looks and the stopping time do not depend on the pool size)
// and returns kAboveThreshold / kBelowThreshold as soon as the whole
// confidence interval clears the threshold, at an overall error
// probability <= delta over the entire (data-dependent, unboundedly
// long) sequence of looks.
//
// Validity is by alpha spending over looks: look w is granted
// delta_w = delta / (w (w+1)), so sum_w delta_w = delta and a union
// bound makes the verdict anytime-valid -- no fixed horizon, no peeking
// penalty, stop whenever the envelope separates. The paired look()
// builds *support-adaptive* one-sided envelopes for the terminal TV
// distance. With k observed cells, each side of each cell gets a
// confidence slice delta_w / (2 (k+2)) and a Maurer-Pontil empirical
// Bernstein radius with plug-in variance p(1-p), capped by the
// Hoeffding radius -- the variance term is what makes sparse
// near-deterministic gaps decide orders of magnitude earlier:
//
//   lower = (1/2) sum_i max(0, |d_i| - rl_i - rr_i)
//     Sound for kAboveThreshold: every unobserved cell contributes
//     nonnegative TV mass, and each observed cell's gap survives both
//     per-cell radii.
//   upper = eps_term + (1/2) sum_i (rl_i + rr_i) + missing
//     Sound for kBelowThreshold: plug-in TV plus per-cell radii plus a
//     missing-mass allowance per side covering the cells never yet
//     sampled -- the smaller of a Good-Turing bound (singletons / n
//     plus a Berend-Kontorovich-style sqrt(3 ln(3/delta_c) / n)
//     deviation term) and, once the support saturates (no new cell
//     since the previous look), a fresh-draw bound ln(1/delta_c) / m
//     over the m draws since that look, whose linear rate is what lets
//     small saturated supports certify "below" at tight margins.
//
// This is what keeps huge trace supports honest: the plug-in TV
// estimate is biased up by roughly sqrt(support / n), and a
// support-blind witness-event rule converts that bias into false
// kAboveThreshold verdicts on identical pairs. Here sparse cells have
// |d_i| < rl_i + rr_i, so the lower envelope stays at zero -- the
// estimator reports kUndecided instead of a wrong verdict (certifying
// "below" on a support of size k genuinely needs n >> k / eps^2; no
// sound rule can shortcut that). The simulation-based coverage suite
// (tests/seq_estimator_test.cpp) pins the realized false-decision rate
// under delta across seeded replicates.
//
// look_scaled() -- the stratified/importance-splitting path -- keeps
// the plug-in witness-mean rule with one Hoeffding side-radius per
// reweighted f-dist (scale sum_s w_s^2 / n_s; the bounded-increment
// argument survives reweighting), which is sharp for the
// small-perception-support insights the split estimator targets; see
// DESIGN.md for the small-support caveat.
//
// Censoring: a look may fire mid-wave, when some executions of the
// committed n are not yet terminal. The terminal-only envelopes widen
// by slack = (live_l + live_r) / n (each unfinished execution can move
// one side's mass on any event by at most 1/n), so a look can only fire
// when it would also fire with the censored mass resolved adversarially.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "measure/disc.hpp"
#include "sched/insight.hpp"

namespace cdse {

/// Outcome of a sequential look (or of a whole sequential run).
enum class SeqVerdict {
  kUndecided,       ///< interval still straddles the threshold
  kAboveThreshold,  ///< eps > threshold at confidence 1 - delta
  kBelowThreshold,  ///< eps < threshold at confidence 1 - delta
};

/// Budget and decision parameters for one sampled epsilon check.
/// max_trials == 0 deactivates the policy entirely (a family sweep whose
/// cells are all exact takes a default-constructed one); max_trials > 0
/// with delta == 0 is the fixed-trial mode (run the whole budget, no
/// looks, verdict by point comparison) -- the sampled cells of a
/// fixed-trial sweep and the "before" row of the E22 draw-count tables.
struct SequentialPolicy {
  /// Per-side trial budget; the sequential run never commits more.
  std::size_t max_trials = 0;
  /// Total error probability spent across all looks (0 = fixed-trial).
  double delta = 0.0;
  /// The eps threshold the verdict is measured against.
  double threshold = 0.0;

  /// First stage size; later stages grow geometrically by `growth` until
  /// the budget is exhausted (trial-level early stopping needs staged
  /// commitment: a BatchSampler commits its trial count at construction,
  /// so waves alone only save depth rounds, not trials).
  std::size_t initial_trials = 1024;
  double growth = 2.0;

  /// Importance splitting: > 0 enables the stratified estimator, which
  /// expands the exact cone to this depth, conditions one run per
  /// live stratum on its prefix, and reweights by exact
  /// cone mass (impl/balance.hpp). 0 = plain paired sampling.
  std::size_t split_depth = 0;
  /// Allocation steering: stratum score = cone_mass * (1 + split_boost *
  /// word_delta / max_word_delta), where word_delta is the cross-side
  /// cone-mass gap of the stratum's action word. 0 = proportional
  /// allocation (the unbiased-variance reference the chi-square gate
  /// certifies).
  double split_boost = 4.0;
  /// Every live stratum draws at least min(split_min_trials, stage /
  /// strata) conditional samples per stage, and never fewer than one
  /// (unbiasedness requires every stratum sampled); the floor comes out
  /// of the stage, not on top of it.
  std::size_t split_min_trials = 64;

  bool active() const { return max_trials > 0; }
  bool sequential() const { return active() && delta > 0.0; }

  /// Throws std::invalid_argument unless the threshold is not NaN, delta
  /// lies in [0, 1) and growth is finite and >= 1. A NaN threshold
  /// compares false against every estimate (a silent "below"), and a NaN
  /// delta silently turns the run fixed-trial. The default policy is
  /// valid.
  void validate() const;
  /// The stage after one of `stage_trials`: growth * stage_trials,
  /// clamped to max_trials before the cast to an integer, and at least
  /// stage_trials + 1.
  std::size_t next_stage(std::size_t stage_trials) const;

  /// Fixed-trial reference: whole budget, no looks.
  static SequentialPolicy fixed(std::size_t trials) {
    SequentialPolicy p;
    p.max_trials = trials;
    return p;
  }
  /// Sequential decision at `threshold` with budget `max_trials`.
  static SequentialPolicy deciding(double threshold, std::size_t max_trials,
                                   double delta = 1e-3) {
    SequentialPolicy p;
    p.max_trials = max_trials;
    p.delta = delta;
    p.threshold = threshold;
    return p;
  }
};

/// One look's (or one run's) outcome, with enough accounting to audit
/// the draw savings the E22 bench reports.
struct SeqDecision {
  SeqVerdict verdict = SeqVerdict::kUndecided;
  double estimate = 0.0;      ///< eps estimate at this look
  double radius = 1.0;        ///< two-sided confidence radius (both sides)
  double censor_slack = 0.0;  ///< bracket width from non-terminal trials
  std::size_t trials = 0;     ///< per-side trials committed at this look
  std::size_t looks = 0;      ///< looks spent so far (this one included)
  std::size_t stages = 0;     ///< geometric stages started (caller-filled)
  std::uint64_t draws = 0;    ///< cumulative logical draws, both sides
};

/// Alpha-spending schedule: the slice of `delta` granted to look number
/// `look` (1-based). sum_{w>=1} delta/(w(w+1)) = delta.
double seq_spend(double delta, std::size_t look);

/// Hoeffding side-radius at confidence 1 - delta for a [0,1]-increment
/// weighted mean with scale = sum_s w_s^2 / n_s (1/n unstratified).
double seq_hoeffding_radius(double scale, double delta);

/// Empirical-Bernstein (Maurer-Pontil) side-radius at confidence
/// 1 - delta with plug-in variance mean*(1-mean) and n_eff = 1/scale.
/// Falls back to the Hoeffding radius when n_eff < 2 or when the
/// variance term would not help.
double seq_bernstein_radius(double mean, double scale, double delta);

/// The confidence-sequence engine. One instance per decision; feed it a
/// look whenever fresh tallies arrive (every wave, every stage
/// boundary). Latching: once a verdict fires, further looks return the
/// same decision without spending schedule mass.
class SeqEstimator {
 public:
  explicit SeqEstimator(const SequentialPolicy& policy) : policy_(policy) {}

  /// Paired look from unnormalized terminal per-perception tallies.
  /// `n` is the trial count committed per side; live_l/live_r are the
  /// committed-but-not-yet-terminal counts (censoring slack). `draws`
  /// is the cumulative logical draw count (accounting only).
  SeqDecision look(const Disc<Perception, double>& counts_l,
                   std::uint64_t live_l,
                   const Disc<Perception, double>& counts_r,
                   std::uint64_t live_r, std::size_t n, std::uint64_t draws);

  /// The same look over dense tallies indexed by `table`'s perception
  /// ids (ids past a tally's end count 0). Both overloads visit the
  /// observed cells in perception order with the same arithmetic, so
  /// equal tallies give bit-identical decisions. Sorts ids the table
  /// interned since its previous order() call.
  SeqDecision look(PerceptionTable& table, const std::vector<double>& counts_l,
                   std::uint64_t live_l, const std::vector<double>& counts_r,
                   std::uint64_t live_r, std::size_t n, std::uint64_t draws);

  /// Generic look from a precomputed estimate: used by the stratified
  /// estimator, whose per-side uncertainty is summarized by a Hoeffding
  /// scale sum_s w_s^2 / n_s. `slack` is the censoring bracket width.
  SeqDecision look_scaled(double estimate, double slack, double scale_l,
                          double scale_r, std::size_t n, std::uint64_t draws);

  const SeqDecision& last() const { return last_; }
  std::size_t looks() const { return looks_; }
  const SequentialPolicy& policy() const { return policy_; }

 private:
  /// The look both overloads run: `cells(fn)` calls fn(count_l, count_r)
  /// once per observed cell (a nonzero count on either side), in
  /// perception order.
  template <typename Cells>
  SeqDecision look_cells(const Cells& cells, std::uint64_t live_l,
                         std::uint64_t live_r, std::size_t n,
                         std::uint64_t draws);

  SequentialPolicy policy_;
  std::size_t looks_ = 0;
  SeqDecision last_;
  // Support-saturation state for the paired look()'s missing-mass
  // bound: the observed union-support size and per-side terminal counts
  // at the previous look (cumulative tallies only ever add cells, so an
  // unchanged count means no new cell appeared).
  bool have_prev_ = false;
  std::size_t prev_observed_ = 0;
  double prev_terminal_l_ = 0.0;
  double prev_terminal_r_ = 0.0;
};

}  // namespace cdse
