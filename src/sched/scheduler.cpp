#include "sched/scheduler.hpp"

#include <stdexcept>

namespace cdse {

const ChoiceRow* Scheduler::choice_row(Psioa& automaton,
                                       const ExecFragment& alpha) {
  scratch_ = ChoiceRow::compile(choose(automaton, alpha));
  return &scratch_;
}

const ChoiceRow* MarkovScheduler::choice_row_at(Psioa& automaton, State q,
                                                std::size_t len) {
  scratch_ = ChoiceRow::compile(choose_at(automaton, q, len));
  return &scratch_;
}

Rational scheduled_halt_mass(const ActionChoice& choice,
                             const Scheduler& sched) {
  static const Rational kOne(1);
  const Rational total = choice.total();
  if (total > kOne) {
    throw std::logic_error("cone measure: scheduler '" + sched.name() +
                           "' returned total mass > 1");
  }
  return kOne - total;
}

}  // namespace cdse
