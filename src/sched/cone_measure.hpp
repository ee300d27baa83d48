#pragma once
// Exact cone measure epsilon_sigma and exact f-dist (Section 3, Def 3.5).
//
// For a scheduler sigma, epsilon_sigma is the measure on the sigma-field
// generated by execution cones. For the finite-branching, halting
// schedulers used throughout the experiments, every cone probability is a
// finite product of rational scheduler and transition weights, so the
// measure of "halted at alpha" events -- and therefore every f-dist -- is
// computed exactly by depth-first enumeration.
//
// The enumerator is iterative (sched/exact_engine.hpp): an explicit
// pending-edge stack over ONE in-place path, visiting events in exactly
// the pre-order of the plain recursive walk but without its per-edge
// ExecFragment copy. That recursive walk lives on as a test-only
// reference (tests/reference_engines.hpp), which the exact-engine suite
// pins the visit order and every engine's f-dists against.
//
// Executions that are still live at `max_depth` are accounted as halted
// there; pass a bound at least as large as the scheduler's own bound to
// make the result the exact f-dist rather than a truncation.

#include <cstddef>
#include <functional>

#include "sched/insight.hpp"
#include "sched/scheduler.hpp"

namespace cdse {

/// Work counters threaded through the exact engines, so the iterative /
/// parallel / prefix-sharing speedups are observable rather than
/// asserted. All counters are additive across merges.
struct ConeStats {
  std::size_t frames_peak = 0;    ///< high-water pending-edge stack size
  std::size_t frames_pushed = 0;  ///< edges traversed (stack pushes)
  std::size_t leaves = 0;         ///< depth-capped maximal executions
  std::size_t halts = 0;          ///< proper halt events (residual mass)
  std::size_t splits = 0;         ///< parallel frontier subtrees fanned out
  std::size_t prefix_hits = 0;    ///< frontier queries answered from cache
  std::size_t prefix_misses = 0;  ///< frontier levels built by extension
  /// Snapshot states fed into bisimulation reduction, summed over the
  /// systems a run minimized (0 = reduction off or fallen back).
  std::size_t quotient_states = 0;
  /// Blocks those states collapsed into; quotient_blocks /
  /// quotient_states is the reduction ratio the E13c ablation reports.
  std::size_t quotient_blocks = 0;

  ConeStats& operator+=(const ConeStats& o) {
    frames_peak = frames_peak > o.frames_peak ? frames_peak : o.frames_peak;
    frames_pushed += o.frames_pushed;
    leaves += o.leaves;
    halts += o.halts;
    splits += o.splits;
    prefix_hits += o.prefix_hits;
    prefix_misses += o.prefix_misses;
    quotient_states += o.quotient_states;
    quotient_blocks += o.quotient_blocks;
    return *this;
  }
};

/// Visits every maximal (halted or depth-capped) execution together with
/// its exact probability under epsilon_sigma, plus every proper halt
/// event (the scheduler's residual mass at an interior fragment).
/// Iterative; `stats` (optional) accumulates work counters.
void for_each_halted_execution(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats = nullptr);

/// f-dist_{(., .)}(sigma): the image of epsilon_sigma under the insight
/// function, exactly (Def 3.5).
ExactDisc<Perception> exact_fdist(Psioa& automaton, Scheduler& sched,
                                  const InsightFunction& f,
                                  std::size_t max_depth,
                                  ConeStats* stats = nullptr);

/// Exact probability that the scheduled process produces an execution
/// whose trace contains `a`. Convenience built on the enumerator.
Rational exact_action_probability(Psioa& automaton, Scheduler& sched,
                                  ActionId a, std::size_t max_depth);

}  // namespace cdse
