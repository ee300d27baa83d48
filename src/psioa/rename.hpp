#pragma once
// Action renaming (Def 2.8, closure Lemma A.1).
//
// ActionBijection is an injective partial map on action ids, applied as
// the identity outside its explicit domain. The paper allows a per-state
// renaming; every use in the paper (the adversary-action renaming g of
// Section 4.9, the (R)-suffix renamings in the proof of Theorem B.4)
// is uniform across states, so we implement the uniform case and keep
// injectivity checkable against any concrete signature via valid_for().

#include <string>
#include <unordered_map>

#include "psioa/memo.hpp"

namespace cdse {

class ActionBijection {
 public:
  /// Maps `from` -> `to`. Throws if it would break injectivity (duplicate
  /// source or duplicate target).
  void add(ActionId from, ActionId to);

  /// Builds the bijection a -> act(name(a) + suffix) over `domain` --
  /// the paper's "fresh action names" device.
  static ActionBijection with_suffix(const ActionSet& domain,
                                     const std::string& suffix);

  ActionId apply(ActionId a) const;
  ActionSet apply(const ActionSet& s) const;
  Signature apply(const Signature& sig) const;

  /// Inverse direction (identity outside the explicit range).
  ActionId invert(ActionId a) const;

  ActionBijection inverse() const;

  bool maps(ActionId a) const { return fwd_.count(a) != 0; }
  const std::unordered_map<ActionId, ActionId>& forward_map() const {
    return fwd_;
  }

  /// True when the renaming restricted to `sig` is injective, i.e. no
  /// identity-passed action of sig collides with a mapped target.
  bool valid_for(const Signature& sig) const;

 private:
  std::unordered_map<ActionId, ActionId> fwd_;
  std::unordered_map<ActionId, ActionId> rev_;
};

/// r(A) of Def 2.8: same states, renamed signatures and transitions.
/// Memoized: the renamed signature (with its injectivity check) and the
/// renamed transitions are derived once per reachable (state, action).
class RenamedPsioa : public MemoPsioa {
 public:
  RenamedPsioa(PsioaPtr inner, ActionBijection r);

  State start_state() override { return inner_->start_state(); }
  BitString encode_state(State q) override { return inner_->encode_state(q); }
  std::string state_label(State q) override {
    return inner_->state_label(q);
  }
  InternStats intern_stats() const override { return inner_->intern_stats(); }
  void reserve_interning(std::size_t expected_states) override {
    inner_->reserve_interning(expected_states);
  }

  Psioa& inner() { return *inner_; }
  const ActionBijection& renaming() const { return r_; }

 protected:
  Signature compute_signature(State q) override;
  StateDist compute_transition(State q, ActionId a) override;

 private:
  PsioaPtr inner_;
  ActionBijection r_;
};

inline PsioaPtr rename_actions(PsioaPtr a, ActionBijection r) {
  return std::make_shared<RenamedPsioa>(std::move(a), std::move(r));
}

}  // namespace cdse
