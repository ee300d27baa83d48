#pragma once
// Hiding on PCA (Def 2.17).
//
// hide(X, h) differs from X only in its signature and hidden-actions
// mapping: the hidden set grows by h(q) and the signature internalizes
// those outputs. Configurations and creation are untouched.

#include "pca/pca.hpp"
#include "psioa/hide.hpp"

namespace cdse {

class HiddenPca : public Pca {
 public:
  HiddenPca(PcaPtr inner, HidingFn h);
  HiddenPca(PcaPtr inner, ActionSet constant);

  State start_state() override { return inner_->start_state(); }
  BitString encode_state(State q) override { return inner_->encode_state(q); }
  std::string state_label(State q) override {
    return inner_->state_label(q);
  }

  Configuration config(State q) override { return inner_->config(q); }
  std::vector<Aid> created(State q, ActionId a) override {
    return inner_->created(q, a);
  }
  ActionSet hidden_actions(State q) override;

  Pca& inner() { return *inner_; }

 protected:
  Signature compute_signature(State q) override;
  StateDist compute_transition(State q, ActionId a) override {
    return inner_->transition(q, a);
  }

 private:
  ActionSet extra_hidden_at(State q);

  PcaPtr inner_;
  HidingFn h_;
};

inline PcaPtr hide_pca(PcaPtr x, ActionSet s) {
  return std::make_shared<HiddenPca>(std::move(x), std::move(s));
}

inline PcaPtr hide_pca(PcaPtr x, HidingFn h) {
  return std::make_shared<HiddenPca>(std::move(x), std::move(h));
}

}  // namespace cdse
