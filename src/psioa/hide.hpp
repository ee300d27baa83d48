#pragma once
// Hiding operator on PSIOA (Def 2.7).
//
// hide(A, h) internalizes a state-dependent subset of output actions:
// only the signature changes, states and transition dynamics are shared
// with the inner automaton. `h` may be a constant set or a per-state
// function; results are intersected with out(q) defensively (Def 2.7
// requires h(q) subset of outputs). Sits on MemoPsioa so the hidden
// signature is derived once per reachable state and the sampler gets
// compiled rows without re-entering the inner automaton.

#include <functional>

#include "psioa/memo.hpp"

namespace cdse {

using HidingFn = std::function<ActionSet(State)>;

class HiddenPsioa : public MemoPsioa {
 public:
  HiddenPsioa(PsioaPtr inner, HidingFn h);
  HiddenPsioa(PsioaPtr inner, ActionSet constant);

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
  PsioaPtr inner_ptr() const { return inner_; }

  /// The set actually hidden at q: h(q) intersected with out(q).
  ActionSet hidden_at(State q);

 protected:
  Signature compute_signature(State q) override;
  StateDist compute_transition(State q, ActionId a) override {
    return inner_->transition(q, a);
  }

 private:
  PsioaPtr inner_;
  HidingFn h_;
};

inline PsioaPtr hide_actions(PsioaPtr a, ActionSet s) {
  return std::make_shared<HiddenPsioa>(std::move(a), std::move(s));
}

inline PsioaPtr hide_actions(PsioaPtr a, HidingFn h) {
  return std::make_shared<HiddenPsioa>(std::move(a), std::move(h));
}

}  // namespace cdse
