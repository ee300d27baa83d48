#include "impl/balance.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/stats.hpp"

namespace cdse {

Rational exact_balance_epsilon(Psioa& lhs, Scheduler& sigma_lhs, Psioa& rhs,
                               Scheduler& sigma_rhs, const InsightFunction& f,
                               std::size_t max_depth) {
  const ExactDisc<Perception> left =
      exact_fdist(lhs, sigma_lhs, f, max_depth);
  const ExactDisc<Perception> right =
      exact_fdist(rhs, sigma_rhs, f, max_depth);
  return balance_distance(left, right);
}

namespace {

/// One side of the policy overload: enumerate the quotient when the
/// reduction succeeded, the original otherwise.
ExactDisc<Perception> reduced_fdist(Psioa& system, Scheduler& sigma,
                                    const InsightFunction& f,
                                    std::size_t max_depth,
                                    const ReductionPolicy& policy,
                                    ConeStats& stats) {
  const std::optional<ReducedSystem> red =
      reduce_for_enumeration(system, max_depth, policy);
  if (!red.has_value()) return exact_fdist(system, sigma, f, max_depth, &stats);
  stats.quotient_states += red->states;
  stats.quotient_blocks += red->blocks;
  return exact_fdist(*red->view, sigma, f, max_depth, &stats);
}

}  // namespace

Rational exact_balance_epsilon(Psioa& lhs, Scheduler& sigma_lhs, Psioa& rhs,
                               Scheduler& sigma_rhs, const InsightFunction& f,
                               std::size_t max_depth,
                               const ReductionPolicy& policy,
                               ConeStats* stats) {
  if (!policy.enabled()) {
    return exact_balance_epsilon(lhs, sigma_lhs, rhs, sigma_rhs, f, max_depth);
  }
  ConeStats scratch;
  ConeStats& cs = stats != nullptr ? *stats : scratch;
  const ExactDisc<Perception> left =
      reduced_fdist(lhs, sigma_lhs, f, max_depth, policy, cs);
  const ExactDisc<Perception> right =
      reduced_fdist(rhs, sigma_rhs, f, max_depth, policy, cs);
  return balance_distance(left, right);
}

bool balanced(Psioa& lhs, Scheduler& sigma_lhs, Psioa& rhs,
              Scheduler& sigma_rhs, const InsightFunction& f,
              std::size_t max_depth, const Rational& eps) {
  return exact_balance_epsilon(lhs, sigma_lhs, rhs, sigma_rhs, f,
                               max_depth) <= eps;
}

// -- sequential (answer-cost) epsilon --------------------------------------

namespace {

/// Distinct RNG universe per (stage, side): the golden-gamma rotation
/// keeps every stage's chunk streams disjoint from every other stage's.
std::uint64_t seq_stage_seed(std::uint64_t seed, std::size_t stage,
                             std::size_t side) {
  return seed + (2 * static_cast<std::uint64_t>(stage) + side + 1) *
                    0x9e3779b97f4a7c15ULL;
}

std::uint64_t logical_draws(const BatchStats& bs) {
  return bs.action_draws + bs.target_draws;
}

/// Plain paired-sampling path: geometric trial stages, wave-interleaved
/// left/right incremental runs, an estimator look after every wave.
SequentialEpsilon plain_sequential_epsilon(
    ParallelSampler& left, ParallelSampler& right, const InsightFunction& f,
    const SequentialPolicy& policy, std::uint64_t seed, std::size_t max_depth,
    ThreadPool& pool) {
  SeqEstimator est(policy);
  // One running integer tally per side over every stage, grown by each
  // wave's merged delta and handed to the looks by reference.
  Disc<Perception, double> tally_l, tally_r;
  std::uint64_t term_l = 0, term_r = 0;
  std::uint64_t draws_done = 0;
  std::size_t committed = 0;
  std::size_t stage = 0;
  bool decided = false;
  SeqDecision dec;

  std::size_t next_stage =
      policy.sequential() ? std::max<std::size_t>(1, policy.initial_trials)
                          : policy.max_trials;
  while (committed < policy.max_trials && !decided) {
    const std::size_t stage_trials =
        std::min(next_stage, policy.max_trials - committed);
    const std::size_t n_committed = committed + stage_trials;
    IncrementalFdistRun run_l(left, f, stage_trials,
                              seq_stage_seed(seed, stage, 0), max_depth, pool,
                              policy.rounds_per_wave);
    IncrementalFdistRun run_r(right, f, stage_trials,
                              seq_stage_seed(seed, stage, 1), max_depth, pool,
                              policy.rounds_per_wave);
    while (!run_l.done() || !run_r.done()) {
      if (!run_l.done()) {
        run_l.step_wave();
        tally_l.merge(run_l.wave_delta());
      }
      if (!run_r.done()) {
        run_r.step_wave();
        tally_r.merge(run_r.wave_delta());
      }
      if (!policy.sequential()) continue;
      // Paired look on the running tallies (prior stages + this one so
      // far). Integer count sums are exact in doubles, so the tallies are
      // independent of wave boundaries and worker counts.
      const std::uint64_t t_l = term_l + run_l.trials_terminal();
      const std::uint64_t t_r = term_r + run_r.trials_terminal();
      const std::uint64_t draws = draws_done +
                                  logical_draws(run_l.batch_stats()) +
                                  logical_draws(run_r.batch_stats());
      dec = est.look(tally_l, n_committed - t_l, tally_r, n_committed - t_r,
                     n_committed, draws);
      if (dec.verdict != SeqVerdict::kUndecided) {
        decided = true;
        break;
      }
    }
    draws_done += logical_draws(run_l.batch_stats()) +
                  logical_draws(run_r.batch_stats());
    term_l += run_l.trials_terminal();
    term_r += run_r.trials_terminal();
    committed = n_committed;
    ++stage;
    next_stage = policy.next_stage(stage_trials);
  }

  SequentialEpsilon out;
  // Report the terminal-normalized estimate (a well-defined pair of
  // probability distributions even when the stop fired mid-wave).
  Disc<Perception, double> pl, pr;
  if (term_l > 0) {
    const double n = static_cast<double>(term_l);
    pl.merge(tally_l, [n](double c) { return c / n; });
  }
  if (term_r > 0) {
    const double n = static_cast<double>(term_r);
    pr.merge(tally_r, [n](double c) { return c / n; });
  }
  out.estimate = balance_distance(pl, pr);
  out.trials = committed;
  out.draws = draws_done;
  out.looks = est.looks();
  out.stages = stage;
  if (policy.sequential()) {
    out.verdict = dec.verdict;
    out.radius = dec.radius;
  } else {
    out.verdict = out.estimate > policy.threshold
                      ? SeqVerdict::kAboveThreshold
                      : SeqVerdict::kBelowThreshold;
    out.radius = 2.0 * hoeffding_radius(committed, 1e-6);
  }
  return out;
}

/// One side of the splitting estimator: its strata, steering weights,
/// and the per-stratum tallies accumulated across stages.
struct SplitSide {
  PrefixStrata strata;
  std::vector<double> weights;
  std::vector<Disc<Perception, double>> counts;
  std::vector<std::uint64_t> n;
  std::size_t sampled = 0;  // total conditional samples committed
};

/// Hoeffding scale of the stratified mean: sum_i w_i^2 / n_i.
double split_scale(const SplitSide& side) {
  double scale = 0.0;
  for (std::size_t i = 0; i < side.strata.live.size(); ++i) {
    if (side.n[i] == 0) return 1.0;  // unsampled stratum: no bound yet
    const double w = side.strata.live[i].prob.to_double();
    scale += w * w / static_cast<double>(side.n[i]);
  }
  return scale;
}

/// Allocation steering: stratum score = cone mass x (1 + boost *
/// word_delta / max_word_delta), where word_delta compares the two
/// sides' cone mass on the stratum's action word -- high-|delta| words
/// are where the distinguishing advantage lives, so they get budget.
void score_split_sides(SplitSide& l, SplitSide& r, double boost) {
  std::map<std::vector<ActionId>, double> mass_l, mass_r;
  for (const auto& s : l.strata.live) {
    mass_l[s.frag.actions()] += s.prob.to_double();
  }
  for (const auto& s : r.strata.live) {
    mass_r[s.frag.actions()] += s.prob.to_double();
  }
  std::map<std::vector<ActionId>, double> delta;
  double max_delta = 0.0;
  for (const auto& [w, m] : mass_l) delta[w] = m;
  for (const auto& [w, m] : mass_r) delta[w] -= m;
  for (auto& [w, d] : delta) {
    d = std::abs(d);
    max_delta = std::max(max_delta, d);
  }
  auto score = [&](SplitSide& side) {
    side.weights.resize(side.strata.live.size());
    for (std::size_t i = 0; i < side.strata.live.size(); ++i) {
      const double w = side.strata.live[i].prob.to_double();
      double steer = 0.0;
      if (max_delta > 0.0) {
        const auto it = delta.find(side.strata.live[i].frag.actions());
        if (it != delta.end()) steer = boost * it->second / max_delta;
      }
      side.weights[i] = w * (1.0 + steer);
    }
    side.counts.assign(side.strata.live.size(), {});
    side.n.assign(side.strata.live.size(), 0);
  };
  score(l);
  score(r);
}

/// Splits `stage_trials` (at least the stratum count k) over the strata:
/// every stratum gets max(1, min(min_trials, stage_trials / k)), and the
/// rest goes by steering weight, largest remainder first (ties to the
/// lower index). The allocation sums to exactly `stage_trials`.
std::vector<std::size_t> allocate_split_stage(
    const std::vector<double>& weights, std::size_t stage_trials,
    std::size_t min_trials) {
  const std::size_t k = weights.size();
  const std::size_t floor_n =
      std::max<std::size_t>(1, std::min(min_trials, stage_trials / k));
  const std::size_t rest = stage_trials - floor_n * k;
  double total_w = 0.0;
  for (double w : weights) total_w += w;
  std::vector<std::size_t> alloc(k, floor_n);
  std::vector<double> frac(k, 0.0);
  std::size_t handed = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double share = total_w > 0.0 ? weights[i] / total_w
                                       : 1.0 / static_cast<double>(k);
    const double ideal = share * static_cast<double>(rest);
    const auto whole = std::min(rest - handed,
                                static_cast<std::size_t>(std::floor(ideal)));
    alloc[i] += whole;
    handed += whole;
    frac[i] = ideal - std::floor(ideal);
  }
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return frac[a] > frac[b];
                   });
  for (std::size_t j = 0; handed < rest; j = (j + 1) % k) {
    ++alloc[order[j]];
    ++handed;
  }
  return alloc;
}

/// One stage of conditional sampling for one side.
void run_split_stage(SplitSide& side, const ParallelSampler& sampler,
                     const InsightFunction& f, std::size_t stage_trials,
                     std::size_t min_trials, std::uint64_t stage_seed,
                     std::size_t max_depth, ThreadPool& pool,
                     std::uint64_t* draws) {
  const std::size_t k = side.strata.live.size();
  if (k == 0) return;
  const std::vector<std::size_t> alloc =
      allocate_split_stage(side.weights, stage_trials, min_trials);
  side.sampled += stage_trials;
  BatchStats stats;
  std::vector<Disc<Perception, double>> fresh = stratified_sample_counts(
      sampler, f, side.strata, alloc, stage_seed, max_depth, pool, &stats);
  for (std::size_t i = 0; i < k; ++i) {
    side.counts[i].merge(std::move(fresh[i]));
    side.n[i] += alloc[i];
  }
  if (draws != nullptr) *draws += logical_draws(stats);
}

/// Importance-splitting path: exact prefix strata per side, conditional
/// continuation sampling with exact reweighting, stage-boundary looks.
SequentialEpsilon split_sequential_epsilon(
    ParallelSampler& left, ParallelSampler& right, const InsightFunction& f,
    const SequentialPolicy& policy, std::uint64_t seed, std::size_t max_depth,
    ThreadPool& pool) {
  SplitSide l, r;
  {
    auto view_l = left.worker_view();
    SchedulerPtr sched_l = left.worker_scheduler();
    l.strata = expand_prefix_strata(*view_l, *sched_l, f, policy.split_depth);
    auto view_r = right.worker_view();
    SchedulerPtr sched_r = right.worker_scheduler();
    r.strata = expand_prefix_strata(*view_r, *sched_r, f, policy.split_depth);
  }
  score_split_sides(l, r, policy.split_boost);

  SequentialEpsilon out;
  out.strata = l.strata.live.size() + r.strata.live.size();
  // Every stage samples every live stratum of both sides at least once,
  // so a stage is never smaller than the wider side's stratum count.
  const std::size_t min_stage =
      std::max(l.strata.live.size(), r.strata.live.size());
  if (policy.max_trials < min_stage) {
    throw std::invalid_argument(
        "sequential_balance_epsilon: max_trials is below the " +
        std::to_string(min_stage) + " live strata at split_depth " +
        std::to_string(policy.split_depth));
  }

  if (l.strata.live.empty() && r.strata.live.empty()) {
    // Everything halted before split_depth: both f-dists are exact.
    out.estimate =
        balance_distance(to_double(l.strata.settled),
                         to_double(r.strata.settled));
    out.radius = 0.0;
    out.verdict = out.estimate > policy.threshold
                      ? SeqVerdict::kAboveThreshold
                      : SeqVerdict::kBelowThreshold;
    return out;
  }

  // The bounded-increment Hoeffding form is the bound that survives
  // stratified reweighting; pin it regardless of the policy default.
  SequentialPolicy est_policy = policy;
  est_policy.bound = SeqBound::kHoeffding;
  SeqEstimator est(est_policy);

  std::uint64_t draws_done = 0;
  std::size_t committed = 0;
  std::size_t stage = 0;
  bool decided = false;
  SeqDecision dec;
  double estimate = 0.0;

  std::size_t next_stage =
      policy.sequential() ? std::max<std::size_t>(1, policy.initial_trials)
                          : policy.max_trials;
  while (committed < policy.max_trials && !decided) {
    const std::size_t remaining = policy.max_trials - committed;
    if (remaining < min_stage) break;  // no whole stage fits the budget
    const std::size_t stage_trials =
        std::min(std::max(next_stage, min_stage), remaining);
    run_split_stage(l, left, f, stage_trials, policy.split_min_trials,
                    seq_stage_seed(seed, stage, 0), max_depth, pool,
                    &draws_done);
    run_split_stage(r, right, f, stage_trials, policy.split_min_trials,
                    seq_stage_seed(seed, stage, 1), max_depth, pool,
                    &draws_done);
    committed += stage_trials;
    ++stage;
    estimate = balance_distance(stratified_fdist(l.strata, l.counts, l.n),
                                stratified_fdist(r.strata, r.counts, r.n));
    if (policy.sequential()) {
      // Stage boundaries only: every stratum cursor ran to completion,
      // so there is no censoring slack.
      dec = est.look_scaled(estimate, 0.0, 0.5, split_scale(l), 0.5,
                            split_scale(r), committed, draws_done);
      decided = dec.verdict != SeqVerdict::kUndecided;
    }
    next_stage = policy.next_stage(stage_trials);
  }

  out.estimate = estimate;
  out.trials = std::max(l.sampled, r.sampled);
  out.draws = draws_done;
  out.looks = est.looks();
  out.stages = stage;
  if (policy.sequential()) {
    out.verdict = dec.verdict;
    out.radius = dec.radius;
  } else {
    out.verdict = out.estimate > policy.threshold
                      ? SeqVerdict::kAboveThreshold
                      : SeqVerdict::kBelowThreshold;
    out.radius = seq_hoeffding_radius(split_scale(l), 1e-6) +
                 seq_hoeffding_radius(split_scale(r), 1e-6);
  }
  return out;
}

}  // namespace

std::vector<Disc<Perception, double>> stratified_sample_counts(
    const ParallelSampler& sampler, const InsightFunction& f,
    const PrefixStrata& strata, const std::vector<std::size_t>& alloc,
    std::uint64_t seed, std::size_t max_depth, ThreadPool& pool,
    BatchStats* stats) {
  if (alloc.size() != strata.live.size()) {
    throw std::invalid_argument(
        "stratified_sample_counts: alloc size != live strata count");
  }
  const std::size_t k = strata.live.size();

  // One worker view + scheduler + cursor per stratum, built on the
  // driving thread; the cursors fan out over the pool but each owns its
  // instances (one-thread-per-instance) and draws from stream i of
  // `seed` -- so the tallies are a pure function of (seed, alloc),
  // independent of worker count and scheduling order.
  struct Cursor {
    std::shared_ptr<SnapshotPsioa> view;
    SchedulerPtr sched;
    std::optional<BatchSampler> bs;
    Disc<Perception, double> counts;
  };
  std::vector<Cursor> cursors(k);
  for (std::size_t i = 0; i < k; ++i) {
    cursors[i].view = sampler.worker_view();
    cursors[i].sched = sampler.worker_scheduler();
    cursors[i].bs.emplace(*cursors[i].view, *cursors[i].sched, alloc[i],
                          Xoshiro256::for_stream(seed, i), max_depth,
                          strata.live[i].frag);
  }
  const InsightFunction& fn = f;
  for (Cursor& c : cursors) {
    pool.submit([&c, &fn] {
      c.bs->run_to_completion();
      c.counts = c.bs->take_counts(fn);
    });
  }
  pool.wait_idle();

  std::vector<Disc<Perception, double>> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = std::move(cursors[i].counts);
    if (stats != nullptr) *stats += cursors[i].bs->stats();
  }
  return out;
}

Disc<Perception, double> stratified_fdist(
    const PrefixStrata& strata,
    const std::vector<Disc<Perception, double>>& counts,
    const std::vector<std::uint64_t>& n) {
  Disc<Perception, double> out;
  out.merge(strata.settled, [](const Rational& w) { return w.to_double(); });
  for (std::size_t i = 0; i < strata.live.size(); ++i) {
    if (i >= counts.size() || i >= n.size() || n[i] == 0) continue;
    const double w = strata.live[i].prob.to_double();
    const double dn = static_cast<double>(n[i]);
    out.merge(counts[i], [w, dn](double c) { return w * c / dn; });
  }
  return out;
}

SequentialEpsilon sequential_balance_epsilon(
    const PsioaFactory& make_lhs, const SchedulerFactory& make_sigma_lhs,
    const PsioaFactory& make_rhs, const SchedulerFactory& make_sigma_rhs,
    const InsightFunction& f, const SequentialPolicy& policy,
    std::uint64_t seed, std::size_t max_depth, ThreadPool& pool,
    SamplingMode mode) {
  policy.validate();
  if (!policy.active()) {
    throw std::invalid_argument(
        "sequential_balance_epsilon: policy.max_trials == 0 (inactive)");
  }
  if (mode == SamplingMode::kSerial) {
    throw std::invalid_argument(
        "sequential_balance_epsilon: kSerial has no round structure; use "
        "kBatched");
  }
  ParallelSampler left(make_lhs, make_sigma_lhs);
  ParallelSampler right(make_rhs, make_sigma_rhs);
  // Covering warm-up: horizon = max_depth compiles every row the cone
  // can touch (the walk still caps at WarmupPlan::max_states; overflow
  // past the cap falls back to the mutex-serialized residue).
  WarmupPlan plan;
  plan.horizon = max_depth;
  left.prepare(plan, max_depth);
  right.prepare(plan, max_depth);

  if (policy.split_depth > 0) {
    return split_sequential_epsilon(left, right, f, policy, seed, max_depth,
                                    pool);
  }
  return plain_sequential_epsilon(left, right, f, policy, seed, max_depth,
                                  pool);
}

}  // namespace cdse
