#include "impl/family_sweep.hpp"

#include <stdexcept>
#include <string>

#include "util/poly.hpp"

namespace cdse {

FamilySweepReport family_epsilon_sweep(
    const PsioaFamily& lhs, const PsioaFamily& rhs,
    const SchedulerFamily& sched, const InsightFunction& f,
    const std::vector<std::uint32_t>& ks, std::size_t max_depth,
    std::uint32_t exact_upto, std::uint64_t seed, ThreadPool& pool,
    const ReductionPolicy& policy, const SequentialPolicy& seq) {
  seq.validate();
  // An unsampled cell would keep sampled = 0, which the classifier reads
  // as decay to zero.
  for (const std::uint32_t k : ks) {
    if (k > exact_upto && !seq.active()) {
      throw std::invalid_argument(
          "family_epsilon_sweep: k = " + std::to_string(k) +
          " is past exact_upto and the sampling policy is inactive");
    }
  }
  FamilySweepReport report;
  report.rows.resize(ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) report.rows[i].k = ks[i];

  // Phase 1: the exact cells are independent (fresh instances per k from
  // the pure family builders), so they fan out over the pool. Each cell
  // is an exact rational, and rows land at their k's index, so the
  // report is identical to the serial sweep at every worker count.
  std::vector<std::size_t> exact_idx;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (ks[i] <= exact_upto) exact_idx.push_back(i);
  }
  parallel_for_chunks(
      pool, exact_idx.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        (void)chunk;
        for (std::size_t j = begin; j < end; ++j) {
          FamilySweepRow& row = report.rows[exact_idx[j]];
          PsioaPtr a = lhs.make(row.k);
          PsioaPtr b = rhs.make(row.k);
          SchedulerPtr s = sched.make(row.k);
          row.exact =
              exact_balance_epsilon(*a, *s, *b, *s, f, max_depth, policy);
          row.sampled = row.exact->to_double();
          row.radius = 0.0;
        }
      });

  // Phase 2: sampled cells run serially here because a split-mode cell
  // fans its strata over the same pool and waits on it, which would
  // deadlock inside a worker (a plain-mode cell runs each side on one
  // stream and leaves the pool unused). Under a deciding
  // policy the cells early-stop; delta splits evenly over the sampled
  // cells so the sweep's verdicts share one union-bound budget.
  std::size_t sampled_cells = 0;
  for (const FamilySweepRow& row : report.rows) {
    if (!row.exact.has_value()) ++sampled_cells;
  }
  SequentialPolicy cell_seq = seq;
  if (seq.sequential() && sampled_cells > 0) {
    cell_seq.delta = seq.delta / static_cast<double>(sampled_cells);
  }
  for (FamilySweepRow& row : report.rows) {
    if (row.exact.has_value()) continue;
    const std::uint32_t k = row.k;
    const SequentialEpsilon se = sequential_balance_epsilon(
        [&lhs, k] { return lhs.make(k); },
        [&sched, k] { return sched.make(k); },
        [&rhs, k] { return rhs.make(k); },
        [&sched, k] { return sched.make(k); }, f, cell_seq, seed + k,
        max_depth, pool);
    row.sampled = se.estimate;
    row.radius = se.radius;
    row.verdict = se.verdict;
    row.trials_used = se.trials;
    row.draws = se.draws;
    report.total_draws += se.draws;
  }

  std::vector<double> eps_series;
  eps_series.reserve(report.rows.size());
  for (const FamilySweepRow& row : report.rows) {
    eps_series.push_back(row.exact ? row.exact->to_double() : row.sampled);
  }
  report.negligible_looking = looks_negligible(ks, eps_series);
  report.fitted_exponent = fitted_decay_exponent(ks, eps_series);
  return report;
}

}  // namespace cdse
