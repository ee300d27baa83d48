#pragma once
// PCA partial-composition X_1 || ... || X_n (Def 2.19).
//
// The PSIOA part is the composition of the component PSIOA parts; the
// configuration of a composite state is the union of the component
// configurations, creation sets and hidden-action sets are unions too.
// Components must share one AutomatonRegistry and their configurations
// must stay disjoint on the automata they hold (checked on contact).
// Closure under composition is the paper's Section 2.6 claim, re-verified
// by check_pca_constraints in tests.

#include "pca/pca.hpp"
#include "psioa/compose.hpp"

namespace cdse {

class ComposedPca : public Pca {
 public:
  explicit ComposedPca(std::vector<PcaPtr> components);

  // Psioa interface, forwarded to the inner composed PSIOA (which is
  // itself memoized; this outer memo just avoids the virtual hop).
  State start_state() override { return inner_->start_state(); }
  BitString encode_state(State q) override { return inner_->encode_state(q); }
  std::string state_label(State q) override {
    return inner_->state_label(q);
  }

  // Pca attributes: unions over components (Def 2.19).
  Configuration config(State q) override;
  std::vector<Aid> created(State q, ActionId a) override;
  ActionSet hidden_actions(State q) override;

  std::size_t component_count() const { return components_.size(); }
  Pca& component(std::size_t i) { return *components_[i]; }
  ComposedPsioa& inner() { return *inner_; }

 protected:
  Signature compute_signature(State q) override {
    return inner_->signature(q);
  }
  StateDist compute_transition(State q, ActionId a) override {
    return inner_->transition(q, a);
  }

 private:
  std::vector<PcaPtr> components_;
  std::shared_ptr<ComposedPsioa> inner_;
};

std::shared_ptr<ComposedPca> compose_pca(std::vector<PcaPtr> components);

inline std::shared_ptr<ComposedPca> compose_pca(PcaPtr a, PcaPtr b) {
  return compose_pca(std::vector<PcaPtr>{std::move(a), std::move(b)});
}

}  // namespace cdse
