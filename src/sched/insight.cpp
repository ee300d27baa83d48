#include "sched/insight.hpp"

#include <algorithm>
#include <stdexcept>

namespace cdse {

Perception TraceInsight::of_trace(const std::vector<ActionId>& trace) const {
  return trace_string(trace);
}

Perception AcceptInsight::of_trace(const std::vector<ActionId>& trace) const {
  for (ActionId a : trace) {
    if (a == acc_) return "1";
  }
  return "0";
}

Perception PrintInsight::of_trace(const std::vector<ActionId>& trace) const {
  std::vector<ActionId> kept;
  for (ActionId a : trace) {
    if (set::contains(print_, a)) kept.push_back(a);
  }
  return trace_string(kept);
}

PerceptionTable::PerceptionTable()
    : parent_{-1},
      action_{kInvalidAction},
      first_child_{-1},
      next_sibling_{-1},
      node_id_{kNoId} {}

std::int32_t PerceptionTable::extend(std::int32_t node, ActionId a) {
  for (std::int32_t c = first_child_[node]; c >= 0; c = next_sibling_[c]) {
    if (action_[c] == a) return c;
  }
  const auto child = static_cast<std::int32_t>(parent_.size());
  parent_.push_back(node);
  action_.push_back(a);
  first_child_.push_back(-1);
  next_sibling_.push_back(first_child_[node]);
  node_id_.push_back(kNoId);
  first_child_[node] = child;
  return child;
}

std::vector<ActionId> PerceptionTable::trace(std::int32_t node) const {
  std::vector<ActionId> out;
  for (std::int32_t v = node; v != kEmptyTrace; v = parent_[v]) {
    out.push_back(action_[v]);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

PerceptionTable::Id PerceptionTable::of_node(std::int32_t node,
                                             const TraceFunction& f) {
  if (memo_owner_ == nullptr) memo_owner_ = &f;
  if (memo_owner_ != &f) {
    throw std::logic_error(
        "PerceptionTable: trace memo queried with a second insight function");
  }
  Id& id = node_id_[node];
  if (id == kNoId) id = intern(f.of_trace(trace(node)));
  return id;
}

PerceptionTable::Id PerceptionTable::intern(Perception p) {
  const auto it = ids_.find(p);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<Id>(strings_.size());
  strings_.push_back(std::move(p));
  ids_.emplace(strings_.back(), id);
  return id;
}

const std::vector<PerceptionTable::Id>& PerceptionTable::order() {
  const std::size_t sorted = order_.size();
  if (sorted == strings_.size()) return order_;
  for (std::size_t id = sorted; id < strings_.size(); ++id) {
    order_.push_back(static_cast<Id>(id));
  }
  const auto by_string = [this](Id x, Id y) {
    return strings_[x] < strings_[y];
  };
  const auto mid = order_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::sort(mid, order_.end(), by_string);
  std::inplace_merge(order_.begin(), mid, order_.end(), by_string);
  return order_;
}

void add_counts(std::vector<double>& tally, const PerceptionCounts& delta) {
  for (const auto& [id, count] : delta) {
    if (id >= tally.size()) tally.resize(static_cast<std::size_t>(id) + 1, 0.0);
    tally[id] += static_cast<double>(count);
  }
}

}  // namespace cdse
