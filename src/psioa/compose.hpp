#pragma once
// Parallel composition A_1 || ... || A_n (Def 2.5, Def 2.18).
//
// Composite states are tuples of component states, interned lazily as the
// reachable fragment is explored -- exactly Def 2.18's restriction of the
// product space to reachable states. Partial compatibility is enforced on
// contact: touching a reachable state whose component signatures are not
// compatible (Def 2.3) throws IncompatibilityError. Transitions follow
// Def 2.5: the product of the component distributions for components that
// have the action in their signature, Dirac for the rest.
//
// encode_state pairs the component encodings with the self-delimiting
// scheme of Lemma B.1's proof, so representation lengths compose exactly
// as the lemma's accounting predicts (exercised by experiment E1).
//
// Composite signatures and transition products are pure functions of the
// interned (state, action), so the class sits on MemoPsioa: each is
// derived once per reachable pair and served from the memo (with a
// compiled double-CDF row for the sampler) on every later visit.
//
// Tuples are interned through the shared arena-backed StateInterner
// (util/state_interner.hpp): keys live inline in a bump arena with
// stable addresses, so tuple() hands out borrowed views that survive
// later interning, and discovery pays no per-state node allocation.

#include <stdexcept>
#include <vector>

#include "psioa/memo.hpp"

namespace cdse {

class IncompatibilityError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class ComposedPsioa : public MemoPsioa {
 public:
  explicit ComposedPsioa(std::vector<PsioaPtr> components);

  State start_state() override;
  BitString encode_state(State q) override;
  std::string state_label(State q) override;

  std::size_t component_count() const { return components_.size(); }
  Psioa& component(std::size_t i) { return *components_[i]; }
  PsioaPtr component_ptr(std::size_t i) const { return components_[i]; }

  /// q |` A_i of Def 2.18: the i-th component's state within q.
  State project(State q, std::size_t i) const;

  /// The full component-state tuple for q. The view borrows arena
  /// storage: it stays valid while this automaton lives, including
  /// across later interning.
  TupleRef tuple(State q) const;

  /// Interns a tuple (exposed for the PCA layer, which needs to align
  /// composite PCA states with component configurations).
  State intern_tuple(const std::vector<State>& tuple);

  InternStats intern_stats() const override;
  void reserve_interning(std::size_t expected_states) override;

 protected:
  // Uncached Def 2.5 semantics; MemoPsioa caches the results per
  // reachable (state, action).
  Signature compute_signature(State q) override;
  StateDist compute_transition(State q, ActionId a) override;

 private:
  std::vector<PsioaPtr> components_;
  StateInterner interned_;
};

/// A_1 || ... || A_n. Requires n >= 1.
std::shared_ptr<ComposedPsioa> compose(std::vector<PsioaPtr> components);

inline std::shared_ptr<ComposedPsioa> compose(PsioaPtr a, PsioaPtr b) {
  return compose(std::vector<PsioaPtr>{std::move(a), std::move(b)});
}

inline std::shared_ptr<ComposedPsioa> compose(PsioaPtr a, PsioaPtr b,
                                              PsioaPtr c) {
  return compose(
      std::vector<PsioaPtr>{std::move(a), std::move(b), std::move(c)});
}

/// Checks partial compatibility of the composition up to `depth`
/// transitions from the start state: explores reachable composite states
/// and reports false instead of throwing when any is incompatible.
bool partially_compatible(std::vector<PsioaPtr> components,
                          std::size_t depth);

}  // namespace cdse
