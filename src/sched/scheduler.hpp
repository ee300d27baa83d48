#pragma once
// Schedulers and scheduler schemas (Def 3.1, Def 3.2).
//
// A scheduler resolves the non-determinism of a PSIOA: given a finite
// execution fragment it returns a discrete *sub*-probability measure over
// the transitions leaving lstate(alpha); the missing mass is the
// probability of halting. Because Def 2.1 makes eta_{(A,q,a)} unique per
// (q, a), a distribution over enabled *actions* identifies a distribution
// over transitions, which is how we represent it.
//
// Weights are exact rationals so that the cone-measure enumerator stays
// exact end to end. The Monte-Carlo samplers instead consume ChoiceRow,
// a compiled view of choose() -- a double CDF for the single-execution
// walk and a split row for the batched sampler's multinomial class
// splits. A MarkovScheduler chooses from (lstate(alpha), |alpha|) alone,
// which the batched sampler exploits; uniform and priority, which read
// only lstate below a depth bound, memoize compiled rows per state, and
// everything else compiles on the fly.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "psioa/execution.hpp"
#include "util/multinomial.hpp"

namespace cdse {

/// Sub-probability over the actions enabled at lstate(alpha);
/// total() < 1 means halting with the residual mass.
using ActionChoice = ExactDisc<ActionId>;

/// Compiled action choice for the sampling fast-path: a running double
/// CDF over the chosen actions. cdf.back() < 1 leaves halting mass, and
/// sample() walks partial sums exactly the way the sampler historically
/// accumulated to_double() weights, so draws are reproducible across the
/// exact and compiled representations.
///
/// `exhaustive` records whether the *exact* total mass was 1: a full
/// choice whose double CDF rounds short (e.g. ten 1/10 weights
/// accumulate to 0.9999999999999999) must clamp a u landing in the
/// rounding gap to the last action instead of falling through to a halt
/// the exact semantics assigns probability zero.
///
/// The row also carries a split row (util/multinomial.hpp), compiled (and
/// frozen into FrozenChoiceTable, shared immutably across workers)
/// together with the CDF: slots 0..actions-1 are the actions, and a
/// non-exhaustive row has one last halt slot carrying the exact residual
/// mass. The batched sampler divides a whole trajectory class over the
/// slots through it -- equivalent to `count` calls of sample() in
/// distribution, not draw-for-draw.
struct ChoiceRow {
  std::vector<ActionId> actions;
  std::vector<double> cdf;
  SplitRow split;  ///< slots: actions, then one halt slot if !exhaustive
  bool exhaustive = false;  ///< exact total mass == 1 (no halt residual)

  bool empty() const { return actions.empty(); }

  static ChoiceRow compile(const ActionChoice& c) {
    ChoiceRow row;
    row.actions.reserve(c.entries().size());
    row.cdf.reserve(c.entries().size());
    std::vector<double> weights;
    weights.reserve(c.entries().size() + 1);
    double acc = 0.0;
    for (const auto& [a, w] : c.entries()) {
      acc += w.to_double();
      row.actions.push_back(a);
      row.cdf.push_back(acc);
      weights.push_back(w.to_double());
    }
    if (row.actions.empty()) return row;  // pure halt: no table needed
    // An overweight row (total > 1, caught elsewhere by the exact
    // enumerator's validation) degrades to exhaustive rather than
    // feeding a negative halt weight to the split-row builder.
    const Rational residual = Rational(1) - c.total();
    row.exhaustive = residual <= Rational(0);
    if (!row.exhaustive) weights.push_back(residual.to_double());
    row.split = SplitRow::build(weights);
    return row;
  }

  /// Draws an action given u ~ Uniform[0,1); kInvalidAction = halt on
  /// the residual mass. A u overshooting a rounding-short CDF of an
  /// exhaustive row clamps to the last action (see `exhaustive`).
  ActionId sample(double u) const {
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (u < cdf[i]) return actions[i];
    }
    if (exhaustive && !actions.empty()) return actions.back();
    return kInvalidAction;
  }
};

/// Immutable per-state ChoiceRow table, frozen from a warmed scheduler
/// and shared read-only across sampler workers (the scheduler-side twin
/// of psioa/snapshot.hpp's CompiledSnapshot). Rows are keyed by State
/// handles, so a frozen table is only meaningful for automata sharing
/// the handle space it was warmed against -- in practice, the
/// SnapshotPsioa views handed out by ParallelSampler.
struct FrozenChoiceTable {
  std::unordered_map<State, ChoiceRow> rows;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// sigma(alpha). Implementations must only give mass to actions in
  /// sig(A)(lstate(alpha)) with total at most 1; the exact cone-measure
  /// enumerator validates both, the Monte-Carlo sampler trusts the
  /// scheduler for speed.
  virtual ActionChoice choose(Psioa& automaton,
                              const ExecFragment& alpha) = 0;

  /// Compiled view of choose(alpha) for the sampler. The returned row is
  /// owned by the scheduler and valid until its next choice_row call.
  /// The default compiles choose() every call; wrappers forward to their
  /// inner scheduler's row. Like the automaton memo tables, rows are
  /// per-instance and unsynchronized (one scheduler instance per sampling
  /// thread).
  virtual const ChoiceRow* choice_row(Psioa& automaton,
                                      const ExecFragment& alpha);

  /// Hands this scheduler's per-state row memo over to an immutable
  /// table that fresh worker instances adopt via adopt_choice_rows(),
  /// leaving the memo empty (as MemoPsioa::freeze does). Returns nullptr
  /// for schedulers without a per-state memo (sequence, task,
  /// oblivious): their decisions are not a function of lstate, so there
  /// is nothing sound to share.
  virtual std::shared_ptr<const FrozenChoiceTable> freeze_choice_rows() {
    return nullptr;
  }

  /// Adopts a frozen table: choice_row serves it lock-free ahead of the
  /// local memo. No-op by default. The table's State keys must belong to
  /// the handle space of the automata this scheduler will drive.
  virtual void adopt_choice_rows(
      std::shared_ptr<const FrozenChoiceTable> table) {
    (void)table;
  }

  virtual std::string name() const = 0;

 protected:
  ChoiceRow scratch_;  // default choice_row / choice_row_at storage
};

/// A scheduler whose choice depends on alpha only through lstate(alpha)
/// and |alpha|, by construction: choose and choice_row are final and
/// hand subclasses exactly that pair. The batched sampler keeps one row
/// per (state, depth) for these, and asks any other scheduler once per
/// trajectory class with the class's real fragment.
class MarkovScheduler : public Scheduler {
 public:
  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) final {
    return choose_at(automaton, alpha.lstate(), alpha.length());
  }
  const ChoiceRow* choice_row(Psioa& automaton,
                              const ExecFragment& alpha) final {
    return choice_row_at(automaton, alpha.lstate(), alpha.length());
  }

  /// sigma(alpha) for every alpha with lstate(alpha) == q and
  /// |alpha| == len.
  virtual ActionChoice choose_at(Psioa& automaton, State q,
                                 std::size_t len) = 0;

  /// Compiled view of choose_at, with choice_row's ownership and
  /// threading rules. The default compiles choose_at every call.
  virtual const ChoiceRow* choice_row_at(Psioa& automaton, State q,
                                         std::size_t len);
};

using SchedulerPtr = std::shared_ptr<Scheduler>;

/// Validates a choice's total mass (Def 3.1: at most 1) and returns the
/// halting residual 1 - total. The single mass-validation path shared by
/// the exact cone enumerators: the total is summed once, the residual is
/// reused instead of being re-derived, and the unit constant is hoisted
/// rather than rebuilt per call. Throws std::logic_error naming `sched`
/// on an overweight choice.
Rational scheduled_halt_mass(const ActionChoice& choice,
                             const Scheduler& sched);

/// Produces a fresh scheduler instance; the unit of distribution for the
/// parallel sampler (one instance per worker, like PsioaFactory).
using SchedulerFactory = std::function<SchedulerPtr()>;

/// A scheduler schema (Def 3.2) maps an automaton to the subset of its
/// schedulers that are admissible; constructively, it builds one.
using SchedulerSchema = std::function<SchedulerPtr(Psioa&)>;

}  // namespace cdse
