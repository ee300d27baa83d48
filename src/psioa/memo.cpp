#include "psioa/memo.hpp"

namespace cdse {

Signature MemoPsioa::signature(State q) { return signature_ref(q); }

const Signature& MemoPsioa::signature_ref(State q) {
  StateMemo& m = memo_[q];
  if (!m.sig.has_value()) {
    ++stats_.sig_computes;
    // Compute before assigning so a throwing compute (e.g. an
    // incompatible composite state) caches nothing.
    m.sig = compute_signature(q);
  } else {
    ++stats_.sig_hits;
  }
  return *m.sig;
}

StateDist MemoPsioa::transition(State q, ActionId a) {
  return compiled_row(q, a).dist;
}

const CompiledRow& MemoPsioa::compiled_row(State q, ActionId a) {
  StateMemo& m = memo_[q];
  auto it = m.rows.find(a);
  if (it != m.rows.end()) {
    ++stats_.row_hits;
    return it->second;
  }
  ++stats_.row_computes;
  CompiledRow row = CompiledRow::compile(compute_transition(q, a));
  return m.rows.emplace(a, std::move(row)).first->second;
}

void MemoPsioa::clear_memo() { memo_.clear(); }

std::size_t MemoPsioa::invalidate_states(
    const std::function<bool(State)>& dead) {
  std::size_t dropped = 0;
  for (auto it = memo_.begin(); it != memo_.end();) {
    if (dead(it->first)) {
      dropped += it->second.rows.size();
      it = memo_.erase(it);
      continue;
    }
    auto& rows = it->second.rows;
    for (auto rit = rows.begin(); rit != rows.end();) {
      bool stale = false;
      for (State target : rit->second.targets) {
        if (dead(target)) {
          stale = true;
          break;
        }
      }
      if (stale) {
        rit = rows.erase(rit);
        ++dropped;
      } else {
        ++rit;
      }
    }
    ++it;
  }
  return dropped;
}

}  // namespace cdse
