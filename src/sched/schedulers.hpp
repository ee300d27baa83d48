#pragma once
// Concrete scheduler families.
//
// The paper deliberately works with a *broad* scheduler space (Section
// 4.4): it only requires schemas rich enough to be oblivious and
// creation-oblivious where the emulation argument needs them, and bounded
// (Def 4.6) where computational indistinguishability needs run-time caps.
// We provide four MarkovSchedulers (sched/scheduler.hpp: the choice is
// a function of (lstate(alpha), |alpha|), which the batched sampler
// exploits) --
//   UniformScheduler    -- uniform over enabled actions, halts at a depth;
//                          the maximally non-committal baseline.
//   PriorityScheduler   -- deterministic: highest-priority enabled action.
//   SequenceScheduler   -- fully off-line: a fixed action word; halts on
//                          the first letter that is not enabled.
//   TaskScheduler       -- task word in the sense of [3]: each task is an
//                          action set; fires the unique enabled action of
//                          the current task, halts when none or ambiguous.
// -- and two plain Schedulers, which may read the whole history:
//   BoundedScheduler    -- Def 4.6 wrapper: never schedules once
//                          |alpha| >= bound.
//   OblivousFnScheduler -- decisions depend only on the action word of
//                          alpha (not on states): the "oblivious in the
//                          sufficient sense" schema of Section 4.4, which
//                          is creation-oblivious for PCA because created
//                          automata never appear in the decision input.
// Uniform and priority read only lstate below a depth bound, so they
// share one base, StateChoiceScheduler, which memoizes their compiled
// rows per state and freezes and adopts them for the sampler's workers.

#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"

namespace cdse {

/// Per-state ChoiceRow memo of a StateChoiceScheduler, whose decision is
/// a function of lstate(alpha) only below its bound. The cache is
/// keyed by the automaton instance it was warmed against and clears on
/// a change, so a scheduler reused across automata stays correct.
///
/// An adopted FrozenChoiceTable is consulted first and bypasses the
/// owner check: frozen rows are keyed by State handles, which stay
/// meaningful across the SnapshotPsioa views of one snapshot even though
/// those are distinct instances. States absent from the frozen table
/// fall back to the local (owner-checked) memo.
class StateChoiceCache {
 public:
  template <typename ComputeFn>
  const ChoiceRow* get(Psioa& automaton, State q, ComputeFn&& compute) {
    if (frozen_ != nullptr) {
      auto it = frozen_->rows.find(q);
      if (it != frozen_->rows.end()) return &it->second;
    }
    if (owner_ != &automaton) {
      rows_.clear();
      owner_ = &automaton;
    }
    auto it = rows_.find(q);
    if (it == rows_.end()) {
      it = rows_.emplace(q, ChoiceRow::compile(compute())).first;
    }
    return &it->second;
  }

  void adopt(std::shared_ptr<const FrozenChoiceTable> frozen) {
    frozen_ = std::move(frozen);
  }

  /// Hands the local memo (frozen rows are not duplicated) over to a new
  /// immutable table and leaves the memo empty.
  std::shared_ptr<const FrozenChoiceTable> freeze() {
    auto table = std::make_shared<FrozenChoiceTable>();
    table->rows = std::exchange(rows_, {});
    return table;
  }

 private:
  Psioa* owner_ = nullptr;
  std::unordered_map<State, ChoiceRow> rows_;
  std::shared_ptr<const FrozenChoiceTable> frozen_;
};

/// The actions a scheduler may fire at q. Def 3.1 allows every enabled
/// action; for *closed* systems (environment included in the composition)
/// the standard discipline is to schedule only locally controlled actions
/// -- outputs and internals -- because a remaining input has no producer
/// and firing it would model a ghost stimulus. Schedulers take a
/// `local_only` flag selecting between the two readings.
ActionSet schedulable_actions(Psioa& automaton, State q, bool local_only);

/// A MarkovScheduler whose choice is a function of lstate alone below a
/// depth bound, and a halt from it on (uniform, priority): it memoizes
/// one compiled row per state, hands that memo over as a
/// FrozenChoiceTable and adopts one. Subclasses implement choose_at.
class StateChoiceScheduler : public MarkovScheduler {
 public:
  const ChoiceRow* choice_row_at(Psioa& automaton, State q,
                                 std::size_t len) final;
  std::shared_ptr<const FrozenChoiceTable> freeze_choice_rows() final {
    return cache_.freeze();
  }
  void adopt_choice_rows(
      std::shared_ptr<const FrozenChoiceTable> table) final {
    cache_.adopt(std::move(table));
  }

 protected:
  StateChoiceScheduler(std::size_t depth_bound, bool local_only)
      : bound_(depth_bound), local_only_(local_only) {}

  std::size_t bound_;
  bool local_only_;

 private:
  StateChoiceCache cache_;
  ChoiceRow halt_row_;
};

class UniformScheduler : public StateChoiceScheduler {
 public:
  explicit UniformScheduler(std::size_t depth_bound, bool local_only = false)
      : StateChoiceScheduler(depth_bound, local_only) {}
  ActionChoice choose_at(Psioa& automaton, State q, std::size_t len) override;
  std::string name() const override { return "uniform"; }
};

class PriorityScheduler : public StateChoiceScheduler {
 public:
  PriorityScheduler(std::vector<ActionId> priority, std::size_t depth_bound,
                    bool local_only = false)
      : StateChoiceScheduler(depth_bound, local_only),
        priority_(std::move(priority)) {}
  ActionChoice choose_at(Psioa& automaton, State q, std::size_t len) override;
  std::string name() const override { return "priority"; }

 private:
  std::vector<ActionId> priority_;
};

class SequenceScheduler : public MarkovScheduler {
 public:
  explicit SequenceScheduler(std::vector<ActionId> word,
                             bool local_only = false)
      : word_(std::move(word)), local_only_(local_only) {}
  ActionChoice choose_at(Psioa& automaton, State q, std::size_t len) override;
  std::string name() const override { return "sequence"; }

 private:
  std::vector<ActionId> word_;
  bool local_only_;
};

class TaskScheduler : public MarkovScheduler {
 public:
  explicit TaskScheduler(std::vector<ActionSet> tasks,
                         bool local_only = false)
      : tasks_(std::move(tasks)), local_only_(local_only) {}
  ActionChoice choose_at(Psioa& automaton, State q, std::size_t len) override;
  std::string name() const override { return "task"; }

 private:
  std::vector<ActionSet> tasks_;
  bool local_only_;
};

/// Def 4.6: b-time-bounded wrapper.
class BoundedScheduler : public Scheduler {
 public:
  BoundedScheduler(SchedulerPtr inner, std::size_t bound)
      : inner_(std::move(inner)), bound_(bound) {}
  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) override;
  const ChoiceRow* choice_row(Psioa& automaton,
                              const ExecFragment& alpha) override;
  // Below the bound the wrapper is transparent, so freezing/adoption
  // passes straight through to the inner scheduler's memo.
  std::shared_ptr<const FrozenChoiceTable> freeze_choice_rows() override {
    return inner_->freeze_choice_rows();
  }
  void adopt_choice_rows(
      std::shared_ptr<const FrozenChoiceTable> table) override {
    inner_->adopt_choice_rows(std::move(table));
  }
  std::string name() const override {
    return "bounded(" + inner_->name() + ")";
  }
  std::size_t bound() const { return bound_; }

 private:
  SchedulerPtr inner_;
  std::size_t bound_;
  ChoiceRow halt_row_;
};

/// Oblivious scheduler defined by a function of the action word and the
/// currently enabled set only.
class ObliviousFnScheduler : public Scheduler {
 public:
  using Fn = std::function<ActionChoice(const std::vector<ActionId>& word,
                                        const ActionSet& enabled)>;
  ObliviousFnScheduler(Fn fn, std::string label)
      : fn_(std::move(fn)), label_(std::move(label)) {}
  ActionChoice choose(Psioa& automaton, const ExecFragment& alpha) override;
  std::string name() const override { return "oblivious(" + label_ + ")"; }

 private:
  Fn fn_;
  std::string label_;
};

/// Measures the longest schedule a scheduler produces from the start
/// state within `max_depth` (exhaustive over its support); used by the
/// dummy-adversary experiment to confirm the q2 = 2*q1 bound of Lemma D.1.
std::size_t max_schedule_length(Psioa& automaton, Scheduler& sched,
                                std::size_t max_depth);

}  // namespace cdse
