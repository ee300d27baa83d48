#include "psioa/execution.hpp"

#include <stdexcept>

#include "psioa/memo.hpp"

namespace cdse {

ExecFragment ExecFragment::concat(const ExecFragment& tail) const {
  if (is_empty()) return tail;
  if (tail.is_empty()) return *this;
  if (tail.fstate() != lstate()) {
    throw std::invalid_argument(
        "ExecFragment::concat: fstate(tail) != lstate(head)");
  }
  ExecFragment out = *this;
  for (std::size_t i = 0; i < tail.length(); ++i) {
    out.append(tail.actions_[i], tail.states_[i + 1]);
  }
  return out;
}

bool ExecFragment::is_prefix_of(const ExecFragment& other) const {
  if (length() > other.length()) return false;
  for (std::size_t i = 0; i <= length(); ++i) {
    if (states_[i] != other.states_[i]) return false;
  }
  for (std::size_t i = 0; i < length(); ++i) {
    if (actions_[i] != other.actions_[i]) return false;
  }
  return true;
}

ExecFragment ExecFragment::prefix(std::size_t n) const {
  if (n > length())
    throw std::invalid_argument("ExecFragment::prefix: n > length");
  ExecFragment out(states_.front());
  for (std::size_t i = 0; i < n; ++i) out.append(actions_[i], states_[i + 1]);
  return out;
}

std::string ExecFragment::to_string(Psioa& automaton) const {
  if (is_empty()) return "<empty>";
  std::string s = automaton.state_label(states_[0]);
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    s += " -" + ActionTable::instance().name(actions_[i]) + "-> ";
    s += automaton.state_label(states_[i + 1]);
  }
  return s;
}

std::vector<ActionId> trace_of(Psioa& automaton, const ExecFragment& alpha) {
  std::vector<ActionId> tr;
  // Memoized automata serve their cached signatures by reference;
  // Psioa::signature returns a copy (three vectors) per step.
  auto* memo = dynamic_cast<MemoPsioa*>(&automaton);
  for (std::size_t i = 0; i < alpha.length(); ++i) {
    const State q = alpha.states()[i];
    const ActionId a = alpha.actions()[i];
    const bool external = memo != nullptr
                              ? memo->signature_ref(q).is_external(a)
                              : automaton.signature(q).is_external(a);
    if (external) tr.push_back(a);
  }
  return tr;
}

std::string trace_string(const std::vector<ActionId>& trace) {
  std::string s;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i) s += ".";
    s += ActionTable::instance().name(trace[i]);
  }
  return s;
}

bool is_execution_fragment(Psioa& automaton, const ExecFragment& alpha) {
  if (alpha.is_empty()) return false;
  for (std::size_t i = 0; i < alpha.length(); ++i) {
    if (!automaton.is_step(alpha.states()[i], alpha.actions()[i],
                           alpha.states()[i + 1])) {
      return false;
    }
  }
  return true;
}

bool is_execution(Psioa& automaton, const ExecFragment& alpha) {
  return is_execution_fragment(automaton, alpha) &&
         alpha.fstate() == automaton.start_state();
}

}  // namespace cdse
