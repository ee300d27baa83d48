#include "psioa/compose.hpp"

#include <queue>
#include <unordered_set>

namespace cdse {

namespace {
std::string composed_name(const std::vector<PsioaPtr>& components) {
  std::string n;
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (i) n += "||";
    n += components[i]->name();
  }
  return n;
}
}  // namespace

ComposedPsioa::ComposedPsioa(std::vector<PsioaPtr> components)
    : MemoPsioa(composed_name(components)),
      components_(std::move(components)) {
  if (components_.empty()) {
    throw std::invalid_argument("ComposedPsioa: empty component list");
  }
}

State ComposedPsioa::intern_tuple(const std::vector<State>& tuple) {
  return interned_.intern_tuple(tuple.data(), tuple.size());
}

InternStats ComposedPsioa::intern_stats() const {
  InternStats s = interned_.stats();
  for (const auto& c : components_) s += c->intern_stats();
  return s;
}

void ComposedPsioa::reserve_interning(std::size_t expected_states) {
  interned_.reserve(expected_states);
  for (auto& c : components_) c->reserve_interning(expected_states);
}

State ComposedPsioa::start_state() {
  std::vector<State> starts;
  starts.reserve(components_.size());
  for (auto& c : components_) starts.push_back(c->start_state());
  return intern_tuple(starts);
}

Signature ComposedPsioa::compute_signature(State q) {
  const TupleRef tup = tuple(q);
  Signature acc = components_[0]->signature(tup[0]);
  for (std::size_t i = 1; i < components_.size(); ++i) {
    const Signature si = components_[i]->signature(tup[i]);
    if (!compatible(acc, si)) {
      throw IncompatibilityError(
          "composition " + name() + " reached incompatible state " +
          state_label(q) + ": component " + components_[i]->name() +
          " clashes (" + si.to_string() + " vs " + acc.to_string() + ")");
    }
    acc = compose(acc, si);
  }
  return acc;
}

StateDist ComposedPsioa::compute_transition(State q, ActionId a) {
  // The memoized signature also enforces compatibility; after the first
  // transition at q this is a cache hit, not a re-derivation.
  const Signature& sig = signature_ref(q);
  if (!sig.contains(a)) {
    throw std::logic_error("ComposedPsioa: action '" +
                           ActionTable::instance().name(a) +
                           "' not enabled at " + state_label(q));
  }
  // Arena keys have stable addresses, so the view stays valid across the
  // interning below (the legacy map stored tuples in a reallocating
  // vector and had to copy here).
  const TupleRef tup = tuple(q);
  // Def 2.5: eta = (x)_j eta_j, with eta_j = dirac(q_j) for components
  // that do not have `a` in their current signature.
  ExactDisc<std::vector<State>> acc =
      ExactDisc<std::vector<State>>::dirac(std::vector<State>{});
  for (std::size_t i = 0; i < components_.size(); ++i) {
    StateDist eta_i;
    if (components_[i]->signature(tup[i]).contains(a)) {
      eta_i = components_[i]->transition(tup[i], a);
    } else {
      eta_i = StateDist::dirac(tup[i]);
    }
    acc = ExactDisc<std::vector<State>>::product(
        acc, eta_i, [](const std::vector<State>& pre, State s) {
          std::vector<State> next = pre;
          next.push_back(s);
          return next;
        });
  }
  StateDist out;
  for (const auto& [target_tuple, w] : acc.entries()) {
    out.add(intern_tuple(target_tuple), w);
  }
  return out;
}

BitString ComposedPsioa::encode_state(State q) {
  const TupleRef tup = tuple(q);
  std::vector<BitString> parts;
  parts.reserve(tup.size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    parts.push_back(components_[i]->encode_state(tup[i]));
  }
  return BitString::pack(parts);
}

std::string ComposedPsioa::state_label(State q) {
  const TupleRef tup = tuple(q);
  std::string s = "(";
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (i) s += ", ";
    s += components_[i]->state_label(tup[i]);
  }
  s += ")";
  return s;
}

State ComposedPsioa::project(State q, std::size_t i) const {
  const TupleRef tup = tuple(q);
  if (i >= tup.size()) {
    throw std::out_of_range("ComposedPsioa: component index out of range");
  }
  return tup[i];
}

TupleRef ComposedPsioa::tuple(State q) const {
  if (q >= interned_.size()) {
    throw std::out_of_range("ComposedPsioa: unknown composite state handle");
  }
  return interned_.tuple(q);
}

std::shared_ptr<ComposedPsioa> compose(std::vector<PsioaPtr> components) {
  return std::make_shared<ComposedPsioa>(std::move(components));
}

bool partially_compatible(std::vector<PsioaPtr> components,
                          std::size_t depth) {
  auto comp = compose(std::move(components));
  std::unordered_set<State> seen;
  std::queue<std::pair<State, std::size_t>> frontier;
  try {
    const State q0 = comp->start_state();
    frontier.emplace(q0, 0);
    seen.insert(q0);
    while (!frontier.empty()) {
      auto [q, d] = frontier.front();
      frontier.pop();
      const Signature sig = comp->signature(q);  // throws if incompatible
      if (d >= depth) continue;
      for (ActionId a : sig.all()) {
        for (State q2 : comp->transition(q, a).support()) {
          if (seen.insert(q2).second) frontier.emplace(q2, d + 1);
        }
      }
    }
  } catch (const IncompatibilityError&) {
    return false;
  }
  return true;
}

}  // namespace cdse
