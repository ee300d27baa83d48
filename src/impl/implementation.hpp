#pragma once
// The approximate implementation relation (Def 4.12) as a test harness.
//
// A <=^{Sch,f}_{p,q1,q2,eps} B quantifies over p-bounded environments and
// q1-bounded schedulers, and asks for a matching q2-bounded scheduler on
// the B side. The harness makes the existential *constructive*: the
// caller provides a SchedulerCorrespondence mapping each left scheduler
// to its right counterpart (identity when both sides expose the same
// action vocabulary; the Forward construction of Lemma D.1 in the
// secure-emulation layer is another instance). The report records the
// exact epsilon per (environment, scheduler) case and the maximum.

#include <string>
#include <vector>

#include "impl/balance.hpp"
#include "psioa/compose.hpp"

namespace cdse {

/// Maps a left-side scheduler to the matching right-side scheduler
/// (the existentially quantified sigma' of Def 4.12).
using SchedulerCorrespondence =
    std::function<SchedulerPtr(const SchedulerPtr&)>;

inline SchedulerCorrespondence same_scheduler() {
  return [](const SchedulerPtr& s) { return s; };
}

struct LabeledPsioa {
  std::string label;
  PsioaPtr automaton;
};

struct LabeledScheduler {
  std::string label;
  SchedulerPtr scheduler;
};

struct ImplementationReport {
  struct Row {
    std::string env;
    std::string sched;
    Rational eps;
  };
  std::vector<Row> rows;
  Rational max_eps;

  bool holds_with(const Rational& eps) const { return max_eps <= eps; }
};

/// Evaluates A <= B over the given environments and schedulers with the
/// provided correspondence, exactly, up to `max_depth` transitions.
/// Environments compose on the left: the evaluated systems are E||A and
/// E||B (composition order only affects state-tuple layout).
ImplementationReport check_implementation(
    const PsioaPtr& a, const PsioaPtr& b,
    const std::vector<LabeledPsioa>& envs,
    const std::vector<LabeledScheduler>& schedulers,
    const SchedulerCorrespondence& correspond, const InsightFunction& f,
    std::size_t max_depth);

/// Factory-labeled grid axes for the parallel checker. Factories must be
/// pure builders (callable concurrently from pool workers); each cell
/// constructs its own automata and scheduler instances, preserving the
/// one-thread-per-instance rule of the memo layer.
struct LabeledPsioaFactory {
  std::string label;
  PsioaFactory make;
};

struct LabeledSchedulerFactory {
  std::string label;
  SchedulerFactory make;
};

/// check_implementation with the (environment, scheduler) grid evaluated
/// in parallel: cells fan out over the pool in env-major order, each on
/// fresh instances, and the report rows come back in exactly the order
/// the serial checker emits them (the reduction to max_eps runs over
/// that fixed order, so the report is identical at every worker count --
/// cell epsilons are exact rationals, not estimates). `correspond` runs
/// on worker threads and must be thread-safe (the identity
/// same_scheduler() and pure constructor lambdas are).
///
/// With an enabled `policy`, every cell's E||A and E||B are minimized to
/// their bisimulation quotients before enumeration; cell epsilons are
/// unchanged exactly (the serial check_implementation stays unreduced as
/// the differential reference).
ImplementationReport check_implementation_parallel(
    const PsioaFactory& a, const PsioaFactory& b,
    const std::vector<LabeledPsioaFactory>& envs,
    const std::vector<LabeledSchedulerFactory>& schedulers,
    const SchedulerCorrespondence& correspond, const InsightFunction& f,
    std::size_t max_depth, ThreadPool& pool,
    const ReductionPolicy& policy = {});

/// Sampled implementation grid, for systems whose cells are too large
/// to enumerate: every (environment, scheduler) cell decides
/// "epsilon above/below policy.threshold" with sequential_balance_epsilon
/// instead of computing the exact rational. The per-cell confidence
/// budget is policy.delta split evenly over the grid (delta / cells per
/// cell, union bound), so the WHOLE report is wrong with probability at
/// most policy.delta. Cells run serially on the calling thread: under
/// importance splitting (policy.split_depth > 0) a cell fans its strata
/// over `pool` and waits on it, which would deadlock inside a pool
/// task. A plain-mode cell leaves `pool` unused; its verdict is the
/// same at every pool size. `mode` is unused.
struct SampledImplementationReport {
  struct Row {
    std::string env;
    std::string sched;
    double eps = 0.0;        ///< terminal-normalized point estimate
    double radius = 1.0;     ///< confidence radius at the stop
    SeqVerdict verdict = SeqVerdict::kUndecided;
    std::size_t trials = 0;  ///< per-side trials the cell committed
    std::uint64_t draws = 0; ///< logical draws the cell spent
  };
  std::vector<Row> rows;
  double max_eps = 0.0;
  std::uint64_t total_draws = 0;  ///< the E22 cost headline
  /// Every cell decided kBelowThreshold (the sampled analogue of
  /// holds_with: A <= B at the policy threshold, confidence 1 - delta).
  bool all_below = false;
};

SampledImplementationReport check_implementation_sampled(
    const PsioaFactory& a, const PsioaFactory& b,
    const std::vector<LabeledPsioaFactory>& envs,
    const std::vector<LabeledSchedulerFactory>& schedulers,
    const SchedulerCorrespondence& correspond, const InsightFunction& f,
    std::size_t max_depth, ThreadPool& pool, const SequentialPolicy& policy,
    std::uint64_t seed, SamplingMode mode = SamplingMode::kBatched);

/// Transitivity helper (Theorem 4.16 / B.4): epsilon13 <= eps12 + eps23
/// checked on concrete chains by the caller; this just packages the
/// triangle inequality evaluation for one environment/scheduler case.
struct TransitivityRow {
  Rational eps12;
  Rational eps23;
  Rational eps13;
  bool triangle_holds;
};

TransitivityRow check_transitivity_case(Psioa& e_a1, Psioa& e_a2,
                                        Psioa& e_a3, Scheduler& sigma,
                                        const InsightFunction& f,
                                        std::size_t max_depth);

}  // namespace cdse
