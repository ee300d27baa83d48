#include "sched/schedulers.hpp"

#include <queue>

namespace cdse {

ActionSet schedulable_actions(Psioa& automaton, State q, bool local_only) {
  const Signature sig = automaton.signature(q);
  if (!local_only) return sig.all();
  return set::unite(sig.out, sig.internal);
}

const ChoiceRow* StateChoiceScheduler::choice_row_at(Psioa& automaton,
                                                     State q,
                                                     std::size_t len) {
  // The choice is a function of lstate alone below the depth bound, so
  // the compiled row memoizes per state.
  if (len >= bound_) return &halt_row_;
  return cache_.get(automaton, q,
                    [&] { return choose_at(automaton, q, len); });
}

ActionChoice UniformScheduler::choose_at(Psioa& automaton, State q,
                                         std::size_t len) {
  ActionChoice c;
  if (len >= bound_) return c;
  const ActionSet enabled = schedulable_actions(automaton, q, local_only_);
  if (enabled.empty()) return c;
  const Rational w(1, static_cast<std::int64_t>(enabled.size()));
  for (ActionId a : enabled) c.add(a, w);
  return c;
}

ActionChoice PriorityScheduler::choose_at(Psioa& automaton, State q,
                                          std::size_t len) {
  ActionChoice c;
  if (len >= bound_) return c;
  const ActionSet enabled = schedulable_actions(automaton, q, local_only_);
  for (ActionId a : priority_) {
    if (set::contains(enabled, a)) {
      c.add(a, Rational(1));
      return c;
    }
  }
  return c;
}

ActionChoice SequenceScheduler::choose_at(Psioa& automaton, State q,
                                          std::size_t len) {
  ActionChoice c;
  if (len >= word_.size()) return c;
  const ActionSet enabled = schedulable_actions(automaton, q, local_only_);
  if (set::contains(enabled, word_[len])) {
    c.add(word_[len], Rational(1));
  }
  return c;
}

ActionChoice TaskScheduler::choose_at(Psioa& automaton, State q,
                                      std::size_t len) {
  ActionChoice c;
  if (len >= tasks_.size()) return c;
  const ActionSet enabled = set::intersect(
      tasks_[len], schedulable_actions(automaton, q, local_only_));
  if (enabled.size() == 1) c.add(enabled.front(), Rational(1));
  return c;
}

ActionChoice BoundedScheduler::choose(Psioa& automaton,
                                      const ExecFragment& alpha) {
  if (alpha.length() >= bound_) return ActionChoice{};
  return inner_->choose(automaton, alpha);
}

const ChoiceRow* BoundedScheduler::choice_row(Psioa& automaton,
                                              const ExecFragment& alpha) {
  // Below the bound the wrapper is transparent, so the inner scheduler's
  // (possibly memoized) compiled row is used directly.
  if (alpha.length() >= bound_) return &halt_row_;
  return inner_->choice_row(automaton, alpha);
}

ActionChoice ObliviousFnScheduler::choose(Psioa& automaton,
                                          const ExecFragment& alpha) {
  return fn_(alpha.actions(), automaton.enabled(alpha.lstate()));
}

std::size_t max_schedule_length(Psioa& automaton, Scheduler& sched,
                                std::size_t max_depth) {
  std::size_t longest = 0;
  // DFS over the support of the scheduled process.
  std::vector<ExecFragment> stack{
      ExecFragment::starting_at(automaton.start_state())};
  while (!stack.empty()) {
    ExecFragment alpha = std::move(stack.back());
    stack.pop_back();
    longest = std::max(longest, alpha.length());
    if (alpha.length() >= max_depth) continue;
    const ActionChoice choice = sched.choose(automaton, alpha);
    for (const auto& [a, w] : choice.entries()) {
      (void)w;
      for (State q2 : automaton.transition(alpha.lstate(), a).support()) {
        ExecFragment next = alpha;
        next.append(a, q2);
        stack.push_back(std::move(next));
      }
    }
  }
  return longest;
}

}  // namespace cdse
