#include "sched/cone_measure.hpp"

#include "sched/exact_engine.hpp"

namespace cdse {

void for_each_halted_execution(
    Psioa& automaton, Scheduler& sched, std::size_t max_depth,
    const std::function<void(const ExecFragment&, const Rational&)>& visit,
    ConeStats* stats) {
  ExecFragment path = ExecFragment::starting_at(automaton.start_state());
  enumerate_cone(automaton, sched, max_depth, path, Rational(1), visit,
                 stats);
}

ExactDisc<Perception> exact_fdist(Psioa& automaton, Scheduler& sched,
                                  const InsightFunction& f,
                                  std::size_t max_depth, ConeStats* stats) {
  ExactDisc<Perception> dist;
  for_each_halted_execution(
      automaton, sched, max_depth,
      [&](const ExecFragment& alpha, const Rational& p) {
        dist.add(f.apply(automaton, alpha), p);
      },
      stats);
  return dist;
}

Rational exact_action_probability(Psioa& automaton, Scheduler& sched,
                                  ActionId a, std::size_t max_depth) {
  Rational total;
  for_each_halted_execution(
      automaton, sched, max_depth,
      [&](const ExecFragment& alpha, const Rational& p) {
        for (ActionId fired : alpha.actions()) {
          if (fired == a) {
            total += p;
            return;
          }
        }
      });
  return total;
}

}  // namespace cdse
